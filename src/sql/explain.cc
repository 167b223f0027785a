#include "sql/explain.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

namespace mope::sql {

namespace {

void RenderNode(engine::Operator* op, int depth, const ExplainOptions& options,
                std::vector<std::string>* out) {
  std::string line;
  if (depth > 0) {
    line.assign(static_cast<size_t>(depth - 1) * 2, ' ');
    line += "-> ";
  }
  line += op->describe();

  char est[48];
  std::snprintf(est, sizeof(est), " (rows=%" PRIu64 ")", op->estimated_rows());
  line += est;

  if (options.analyze) {
    const engine::OpStats& s = op->stats();
    char actual[160];
    std::snprintf(actual, sizeof(actual),
                  " (actual rows=%" PRIu64 " next_calls=%" PRIu64
                  " ns=%" PRIu64 ")",
                  s.rows_out, s.next_calls, s.open_ns + s.next_ns);
    line += actual;
    // Data-access detail only where there is any: scans attribute index
    // entries / nodes. Zero detail renders nothing, keeping plans readable.
    if (s.entries_visited != 0 || s.nodes_visited != 0) {
      char access[96];
      std::snprintf(access, sizeof(access),
                    " (entries=%" PRIu64 " nodes=%" PRIu64 ")",
                    s.entries_visited, s.nodes_visited);
      line += access;
    }
  }
  out->push_back(std::move(line));

  for (engine::Operator* child : op->children()) {
    RenderNode(child, depth + 1, options, out);
  }
}

}  // namespace

std::vector<std::string> RenderPlanLines(engine::Operator* root,
                                         const ExplainOptions& options) {
  std::vector<std::string> lines;
  if (root != nullptr) RenderNode(root, 0, options, &lines);
  return lines;
}

SqlResult PlanLinesToResult(std::vector<std::string> lines) {
  SqlResult result;
  result.columns = {"QUERY PLAN"};
  result.rows.reserve(lines.size());
  for (std::string& line : lines) {
    engine::Row row;
    row.emplace_back(std::move(line));
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace mope::sql
