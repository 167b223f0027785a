#ifndef MOPE_SQL_EXPLAIN_H_
#define MOPE_SQL_EXPLAIN_H_

/// \file explain.h
/// Plan rendering for EXPLAIN / EXPLAIN ANALYZE.
///
/// A plan renders as one line per operator ("->" marks children, indented
/// two spaces per level, PostgreSQL-style). Plain EXPLAIN shows the
/// planner's estimated cardinalities; ANALYZE appends each operator's
/// actuals from its OpStats block (rows, Next() calls, inclusive
/// nanoseconds, index entries / B+-tree nodes visited). The lines are
/// packaged as a one-column "QUERY PLAN" result set so EXPLAIN output flows
/// through every existing result pipeline (shell tables, -c one-shots,
/// tests) unchanged.

#include <string>
#include <vector>

#include "engine/executor.h"
#include "sql/planner.h"

namespace mope::sql {

struct ExplainOptions {
  bool analyze = false;  ///< Append per-operator actuals.
};

/// Renders the operator tree rooted at `root` as EXPLAIN text lines.
std::vector<std::string> RenderPlanLines(engine::Operator* root,
                                         const ExplainOptions& options);

/// Wraps rendered lines (plan, resource vector, ...) into a one-column
/// "QUERY PLAN" result set.
SqlResult PlanLinesToResult(std::vector<std::string> lines);

}  // namespace mope::sql

#endif  // MOPE_SQL_EXPLAIN_H_
