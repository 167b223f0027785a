#include "engine/durability.h"

#include <set>
#include <utility>

#include "engine/codec.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace mope::engine {

namespace {

using storage::kInvalidPageId;
using storage::PageId;
using storage::RecordId;
using storage::WalRecord;
using storage::WalRecordType;

// --- DDL record / catalog blob codecs -------------------------------------
// kCatalog WAL payloads: 1-byte op tag, then op-specific fields.
constexpr uint8_t kOpCreateTable = 1;  // [name][schema][u64 heap_head]
constexpr uint8_t kOpDropTable = 2;    // [name]
constexpr uint8_t kOpCreateIndex = 3;  // [name][u64 column]

void PutSchema(std::string* out, const Schema& schema) {
  PutU64(out, schema.num_columns());
  for (const Column& col : schema.columns()) {
    PutString(out, col.name);
    out->push_back(static_cast<char>(col.type));
  }
}

Result<Schema> ReadSchema(ByteReader& reader) {
  MOPE_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
  std::vector<Column> columns;
  columns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Column col;
    MOPE_ASSIGN_OR_RETURN(col.name, reader.String());
    MOPE_ASSIGN_OR_RETURN(uint8_t type, reader.Byte());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::Corruption("durable catalog: bad column type tag");
    }
    col.type = static_cast<ValueType>(type);
    columns.push_back(std::move(col));
  }
  return Schema::Create(std::move(columns));
}

std::string EncodeRow(const Row& row) {
  std::string out;
  PutU64(&out, row.size());
  for (const Value& v : row) PutValue(&out, v);
  return out;
}

Result<Row> DecodeRow(std::string_view bytes) {
  ByteReader reader(bytes, "heap record");
  MOPE_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
  Row row;
  row.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    MOPE_ASSIGN_OR_RETURN(Value v, reader.ReadValue());
    row.push_back(std::move(v));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("heap record has trailing bytes");
  }
  return row;
}

/// Durable description of one table, as recovered from the catalog blob
/// plus replayed DDL records.
struct TableMeta {
  Schema schema;
  PageId heap_head = kInvalidPageId;
  std::set<size_t> indexed_columns;  // each index is rebuilt from the rows
};

using TableMetaMap = std::map<std::string, TableMeta>;

Result<TableMetaMap> DecodeCatalogBlob(const std::string& blob) {
  TableMetaMap metas;
  if (blob.empty()) return metas;
  ByteReader reader(blob, "durable catalog");
  MOPE_ASSIGN_OR_RETURN(uint64_t n_tables, reader.U64());
  for (uint64_t t = 0; t < n_tables; ++t) {
    MOPE_ASSIGN_OR_RETURN(std::string name, reader.String());
    TableMeta meta;
    MOPE_ASSIGN_OR_RETURN(meta.schema, ReadSchema(reader));
    MOPE_ASSIGN_OR_RETURN(meta.heap_head, reader.U64());
    MOPE_ASSIGN_OR_RETURN(uint64_t n_indexes, reader.U64());
    for (uint64_t i = 0; i < n_indexes; ++i) {
      MOPE_ASSIGN_OR_RETURN(uint64_t col, reader.U64());
      meta.indexed_columns.insert(col);
    }
    metas[std::move(name)] = std::move(meta);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("durable catalog has trailing bytes");
  }
  return metas;
}

Status ApplyCatalogRecord(const WalRecord& rec, TableMetaMap* metas) {
  ByteReader reader(rec.payload, "catalog WAL record");
  MOPE_ASSIGN_OR_RETURN(uint8_t op, reader.Byte());
  switch (op) {
    case kOpCreateTable: {
      MOPE_ASSIGN_OR_RETURN(std::string name, reader.String());
      TableMeta meta;
      MOPE_ASSIGN_OR_RETURN(meta.schema, ReadSchema(reader));
      MOPE_ASSIGN_OR_RETURN(meta.heap_head, reader.U64());
      (*metas)[std::move(name)] = std::move(meta);
      return Status::OK();
    }
    case kOpDropTable: {
      MOPE_ASSIGN_OR_RETURN(std::string name, reader.String());
      metas->erase(name);
      return Status::OK();
    }
    case kOpCreateIndex: {
      MOPE_ASSIGN_OR_RETURN(std::string name, reader.String());
      MOPE_ASSIGN_OR_RETURN(uint64_t col, reader.U64());
      const auto it = metas->find(name);
      if (it == metas->end()) {
        return Status::Corruption("create-index record for unknown table '" +
                                  name + "'");
      }
      it->second.indexed_columns.insert(col);
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown catalog WAL op " +
                                std::to_string(op));
  }
}

}  // namespace

// --- Per-table durable state ----------------------------------------------

struct DurableCatalog::TableState : TableDurabilityHooks {
  TableState(DurableCatalog* owner, std::string name)
      : owner(owner), name(std::move(name)) {}

  Result<Table*> table() {
    return owner->catalog_->GetTable(name);
  }

  Status OnInsert(RowId id, const Row& row) override {
    if (id != row_rids.size()) {
      return Status::Internal("durable row ids out of step with table");
    }
    MOPE_ASSIGN_OR_RETURN(RecordId rid, heap->Append(EncodeRow(row)));
    row_rids.push_back(rid);
    return Status::OK();
  }

  Status OnUpdateValue(RowId id, size_t column, const Value& value) override {
    if (id >= row_rids.size()) {
      return Status::Internal("durable update for unknown row");
    }
    MOPE_ASSIGN_OR_RETURN(Table * t, table());
    Row row = t->row(id);  // pre-update contents
    row[column] = value;
    return heap->Update(row_rids[id], EncodeRow(row));
  }

  Status OnCreateIndex(size_t column) override {
    std::string payload;
    payload.push_back(static_cast<char>(kOpCreateIndex));
    PutString(&payload, name);
    PutU64(&payload, column);
    MOPE_RETURN_NOT_OK(
        owner->engine_->logger()->Log(WalRecordType::kCatalog, payload)
            .status());
    indexed_columns.insert(column);
    return Status::OK();
  }

  DurableCatalog* const owner;
  const std::string name;
  std::unique_ptr<storage::TableHeap> heap;
  std::set<size_t> indexed_columns;
  std::vector<RecordId> row_rids;  // RowId -> heap record
};

// --- DurableCatalog --------------------------------------------------------

DurableCatalog::DurableCatalog(Catalog* catalog,
                               std::unique_ptr<storage::StorageEngine> e)
    : catalog_(catalog), engine_(std::move(e)) {}

DurableCatalog::~DurableCatalog() {
  catalog_->set_durability_hooks(nullptr);
  for (const auto& [name, state] : tables_) {
    auto table = catalog_->GetTable(name);
    if (table.ok()) table.value()->set_durability_hooks(nullptr);
  }
}

Result<std::unique_ptr<DurableCatalog>> DurableCatalog::Open(
    const std::string& dir, Catalog* catalog, const Options& options) {
  if (!catalog->TableNames().empty()) {
    return Status::InvalidArgument(
        "DurableCatalog::Open requires an empty catalog");
  }
  storage::StorageOptions storage_options;
  storage_options.pool_frames = options.pool_frames;
  storage_options.wal_sync_every = options.wal_sync_every;
  storage_options.env = options.env;
  storage_options.metrics = options.metrics;
  storage_options.clock = options.clock;
  MOPE_ASSIGN_OR_RETURN(std::unique_ptr<storage::StorageEngine> engine,
                        storage::StorageEngine::Open(dir, storage_options));
  std::unique_ptr<DurableCatalog> durable(
      new DurableCatalog(catalog, std::move(engine)));
  MOPE_RETURN_NOT_OK(durable->Recover());
  return durable;
}

Status DurableCatalog::Recover() {
  const obs::ScopedSpan span("engine.recovery");
  recovered_from_crash_ = engine_->crash_recovered();

  MOPE_ASSIGN_OR_RETURN(TableMetaMap metas,
                        DecodeCatalogBlob(engine_->catalog_blob()));
  for (const WalRecord& rec : engine_->TakeCatalogRecords()) {
    MOPE_RETURN_NOT_OK(ApplyCatalogRecord(rec, &metas));
  }

  for (auto& [name, meta] : metas) {
    MOPE_ASSIGN_OR_RETURN(Table * table,
                          catalog_->CreateTable(name, meta.schema));
    auto state = std::make_unique<TableState>(this, name);
    MOPE_ASSIGN_OR_RETURN(
        state->heap,
        storage::TableHeap::Open(engine_->pool(), engine_->logger(),
                                 meta.heap_head));
    MOPE_RETURN_NOT_OK(state->heap->Scan(
        [&](RecordId rid, std::string_view bytes) -> Status {
          MOPE_ASSIGN_OR_RETURN(Row row, DecodeRow(bytes));
          MOPE_ASSIGN_OR_RETURN(RowId id, table->Insert(std::move(row)));
          if (id != state->row_rids.size()) {
            return Status::Internal("heap scan out of step with row ids");
          }
          state->row_rids.push_back(rid);
          return Status::OK();
        }));
    // Every index is derived from the rows: one rebuild per recorded
    // column, the same after a clean shutdown as after a crash.
    for (const size_t col : meta.indexed_columns) {
      if (col >= meta.schema.num_columns()) {
        return Status::Corruption("durable index on unknown column");
      }
      MOPE_RETURN_NOT_OK(table->CreateIndex(meta.schema.column(col).name));
      state->indexed_columns.insert(col);
    }
    tables_[name] = std::move(state);
  }

  // From here on, every mutation is write-ahead logged.
  catalog_->set_durability_hooks(this);
  for (const auto& [name, state] : tables_) {
    MOPE_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(name));
    table->set_durability_hooks(state.get());
  }

  // After a crash, checkpoint now so the replayed WAL is retired: the next
  // open starts from the redone pages instead of replaying it again.
  if (recovered_from_crash_) {
    MOPE_RETURN_NOT_OK(Checkpoint());
  }
  obs::LogEvent(obs::Logger::Default(),
                recovered_from_crash_ ? obs::LogLevel::kInfo
                                      : obs::LogLevel::kDebug,
                "engine", "recovered")
      .Arg("tables", tables_.size())
      .Arg("crash_recovery", recovered_from_crash_)
      .Arg("wal_records", engine_->recovered_records());
  return Status::OK();
}

Result<TableDurabilityHooks*> DurableCatalog::OnCreateTable(
    const std::string& name, const Schema& schema) {
  auto state = std::make_unique<TableState>(this, name);
  MOPE_ASSIGN_OR_RETURN(
      state->heap,
      storage::TableHeap::Open(engine_->pool(), engine_->logger(),
                               kInvalidPageId));
  std::string payload;
  payload.push_back(static_cast<char>(kOpCreateTable));
  PutString(&payload, name);
  PutSchema(&payload, schema);
  PutU64(&payload, state->heap->head());
  MOPE_RETURN_NOT_OK(
      engine_->logger()->Log(WalRecordType::kCatalog, payload).status());
  TableDurabilityHooks* hooks = state.get();
  tables_[name] = std::move(state);
  return hooks;
}

Status DurableCatalog::OnDropTable(const std::string& name) {
  std::string payload;
  payload.push_back(static_cast<char>(kOpDropTable));
  PutString(&payload, name);
  MOPE_RETURN_NOT_OK(
      engine_->logger()->Log(WalRecordType::kCatalog, payload).status());
  // The table's heap pages are leaked until a page free-list lands
  // (documented in DESIGN.md §9) — correctness first.
  tables_.erase(name);
  return Status::OK();
}

Result<std::string> DurableCatalog::EncodeCatalogBlob() const {
  std::string blob;
  PutU64(&blob, tables_.size());
  for (const auto& [name, state] : tables_) {
    MOPE_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(name));
    PutString(&blob, name);
    PutSchema(&blob, table->schema());
    PutU64(&blob, state->heap->head());
    PutU64(&blob, state->indexed_columns.size());
    for (const size_t col : state->indexed_columns) PutU64(&blob, col);
  }
  return blob;
}

Status DurableCatalog::Checkpoint() {
  const obs::ScopedSpan span("engine.checkpoint");
  MOPE_ASSIGN_OR_RETURN(std::string blob, EncodeCatalogBlob());
  return engine_->Checkpoint(blob);
}

Status DurableCatalog::Sync() { return engine_->Sync(); }

}  // namespace mope::engine
