#ifndef MOPE_ENGINE_TABLE_H_
#define MOPE_ENGINE_TABLE_H_

/// \file table.h
/// Row-store tables with typed schemas and secondary B+-tree indexes.
///
/// The server-side storage substrate. In the MOPE architecture the server
/// stores ciphertext columns (uint64) for every attribute that supports
/// range predicates, plus ordinary columns for everything else; the engine
/// is agnostic — it just stores and indexes values.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "engine/btree.h"

namespace mope::engine {

/// Column types supported by the engine.
enum class ValueType : uint8_t { kInt, kDouble, kString };

/// A single cell. Int columns hold both plaintext integers and MOPE
/// ciphertexts (which are just integers to the server).
using Value = std::variant<int64_t, double, std::string>;

ValueType TypeOf(const Value& v);
std::string ValueToString(const Value& v);

/// A row: one Value per schema column.
using Row = std::vector<Value>;

/// Row identifier: dense index into the table's row vector.
using RowId = uint64_t;

struct Column {
  std::string name;
  ValueType type;
};

/// A table schema: ordered, named, typed columns.
class Schema {
 public:
  Schema() = default;
  /// For schemas written in code: a duplicate column name aborts.
  explicit Schema(std::vector<Column> columns);
  /// For schemas decoded from bytes (wire reply, snapshot, durable
  /// catalog): a duplicate column name is Corruption, never an abort.
  static Result<Schema> Create(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the named column, or NotFound.
  Result<size_t> IndexOf(const std::string& name) const;

  /// OK when the row matches the schema arity and column types.
  Status Validate(const Row& row) const;

 private:
  /// Takes `columns` and maps their names; Corruption on a duplicate.
  Status Init(std::vector<Column> columns);

  std::vector<Column> columns_;
  std::map<std::string, size_t> by_name_;
};

/// Durability hooks: a Table with hooks installed reports every mutation
/// *before* applying it in memory, after all validation has passed. The
/// implementation (engine::DurableCatalog) writes the mutation ahead into
/// the storage engine's WAL/heap; a hook failure aborts the mutation with
/// nothing applied on either side. A Table without hooks (the default) is
/// the original purely in-memory engine.
class TableDurabilityHooks {
 public:
  virtual ~TableDurabilityHooks() = default;

  /// `id` is the RowId the row is about to receive.
  virtual Status OnInsert(RowId id, const Row& row) = 0;
  virtual Status OnUpdateValue(RowId id, size_t column, const Value& value) = 0;
  virtual Status OnCreateIndex(size_t column) = 0;
};

/// An in-memory row-store table with optional secondary indexes.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t row_count() const { return rows_.size(); }

  /// Validates and appends a row; maintains all indexes. Returns the RowId.
  Result<RowId> Insert(Row row);

  /// Row access. Precondition: id < row_count().
  const Row& row(RowId id) const;

  /// Replaces one cell, keeping any index on that column consistent (used
  /// by MOPE key rotation, which rewrites the whole ciphertext column).
  Status UpdateValue(RowId id, size_t column, Value value);

  /// Creates a B+-tree index over an int column. Fails on non-int columns
  /// or negative stored values (MOPE ciphertexts are always non-negative).
  Status CreateIndex(const std::string& column_name);

  /// The index on the named column, or NotFound.
  Result<const BPlusTree*> GetIndex(const std::string& column_name) const;

  bool HasIndex(const std::string& column_name) const;

  /// Installs (or clears, with nullptr) the durability hooks. The hooks
  /// object must outlive the table or the next set_durability_hooks call.
  void set_durability_hooks(TableDurabilityHooks* hooks) { hooks_ = hooks; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  // column index -> B+-tree over that column's int values.
  std::map<size_t, std::unique_ptr<BPlusTree>> indexes_;
  TableDurabilityHooks* hooks_ = nullptr;
};

/// Catalog-level durability hooks: DDL counterparts of TableDurabilityHooks.
class CatalogDurabilityHooks {
 public:
  virtual ~CatalogDurabilityHooks() = default;

  /// Called before the table becomes visible. Returns the per-table hooks
  /// to install on it (the implementation allocates the table's heap here).
  virtual Result<TableDurabilityHooks*> OnCreateTable(const std::string& name,
                                                      const Schema& schema) = 0;
  virtual Status OnDropTable(const std::string& name) = 0;
};

/// The server's catalog of tables.
class Catalog {
 public:
  /// Creates a table; AlreadyExists when the name is taken.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Removes a table (and its indexes); NotFound when absent. Used to roll
  /// back a partially populated table when a bulk load fails midway.
  Status DropTable(const std::string& name);

  /// Looks a table up; NotFound when absent.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Installs (or clears) the DDL durability hooks.
  void set_durability_hooks(CatalogDurabilityHooks* hooks) { hooks_ = hooks; }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  CatalogDurabilityHooks* hooks_ = nullptr;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_TABLE_H_
