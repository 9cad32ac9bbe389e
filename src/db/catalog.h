/// \file catalog.h
/// \brief Catalog: named tables, temp tables and views, plus their statistics.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/mem_tracker.h"
#include "db/index.h"
#include "db/sql/ast.h"
#include "db/stats.h"
#include "db/table.h"
#include "db/virtual_table.h"

namespace dl2sql::db {

/// \brief Owns all named relations of a Database instance.
///
/// Names are case-insensitive. Views store their defining SELECT and are
/// expanded at planning time. Statistics are attached per table by Analyze();
/// fresh tables (notably DL2SQL's generated per-layer temp tables) have none,
/// which is precisely the blind spot of the default cost model the paper
/// exploits in Section IV.
///
/// Thread safety: every method takes an internal reader/writer lock (shared
/// for const accessors, exclusive for mutators), so concurrent SELECTs may
/// resolve relations while another session runs DDL/DML. Two returns escape
/// the lock by design: GetTable's shared_ptr keeps a dropped table's data
/// alive for the query that resolved it (snapshot semantics), and GetStats'
/// raw pointer is only stable while no mutator runs — the serving layer's
/// statement-level RW lock (QueryService) guarantees that; direct multi-
/// threaded Database users must provide the same exclusion.
class Catalog {
 public:
  Status CreateTable(const std::string& name, TablePtr table, bool temporary,
                     bool if_not_exists = false);
  Status CreateView(const std::string& name,
                    std::shared_ptr<SelectStmt> definition, bool or_replace);

  Result<TablePtr> GetTable(const std::string& name) const;
  Result<std::shared_ptr<SelectStmt>> GetView(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  bool HasView(const std::string& name) const;

  Status DropTable(const std::string& name, bool if_exists);
  Status DropView(const std::string& name, bool if_exists);

  /// Removes every temporary table (end-of-query cleanup in engines).
  void DropAllTemporary();

  /// Computes and caches statistics for a table.
  Status Analyze(const std::string& name);

  /// Cached stats; nullptr when the table was never analyzed.
  const TableStats* GetStats(const std::string& name) const;

  /// Invalidate stats and indexes (after DML).
  void InvalidateStats(const std::string& name);

  /// Builds (or rebuilds) a hash index on an INT64 column; reused by hash
  /// joins whose build side is an unfiltered scan of this table.
  Status CreateIndex(const std::string& table, const std::string& column);

  /// Cached index, or nullptr if absent/invalidated.
  std::shared_ptr<const HashIndex> GetIndex(const std::string& table,
                                            const std::string& column) const;

  std::vector<std::string> TableNames() const;
  std::vector<std::string> ViewNames() const;

  /// True if `name` is a temporary table.
  bool IsTemporary(const std::string& name) const;

  /// Sum of payload bytes over all tables (storage-overhead benchmarks).
  uint64_t TotalBytes() const;

  /// Bytes this table last charged against the catalog memory tracker (0 for
  /// unknown names, views, virtual tables, or with accounting disabled).
  /// Re-synced on create/ANALYZE and after DML via InvalidateStats, so it can
  /// lag the live ByteSize between mutation and invalidation.
  int64_t TrackedBytes(const std::string& name) const;

  /// The catalog's storage tracker, a child of MemTracker::Process().
  const MemTracker& mem_tracker() const { return mem_; }

  /// \brief Per-relation schema/content version, for plan-cache validation.
  ///
  /// Every mutation touching a name — create/drop (tables and views), DML
  /// stats invalidation, ANALYZE, index (re)builds — bumps its version. The
  /// counter outlives drop/recreate cycles, so a cached plan referencing a
  /// dropped-then-recreated relation can never validate against the new one.
  /// Virtual-table versions fold in the provider's own version, so replacing
  /// a provider also invalidates plans compiled against the old schema.
  uint64_t VersionOf(const std::string& name) const;

  // --- Virtual tables (reserved `system.` schema) -------------------------
  //
  // Providers materialize rows at scan time; the catalog stores only the
  // provider handle and its fixed schema. Names under `system.` are reserved:
  // CreateTable/CreateView reject them so user DDL can never shadow (or be
  // shadowed by) an introspection table.

  /// Registers (or replaces) a provider under its own name(). The name must
  /// start with "system.".
  Status RegisterVirtualTable(std::shared_ptr<VirtualTableProvider> provider);

  /// Removes a provider; missing names are a no-op (Database and
  /// QueryService both unregister defensively in their destructors).
  void UnregisterVirtualTable(const std::string& name);

  /// Provider lookup; nullptr when `name` is not a registered virtual table.
  std::shared_ptr<VirtualTableProvider> GetVirtualTable(
      const std::string& name) const;

  bool HasVirtualTable(const std::string& name) const;

  /// Sorted names of registered virtual tables.
  std::vector<std::string> VirtualTableNames() const;

  /// True for any name in the reserved introspection schema ("system.x",
  /// case-insensitive), registered or not.
  static bool IsSystemName(const std::string& name);

 private:
  /// Callers hold mu_ exclusively.
  void BumpVersion(const std::string& key) { ++versions_[key]; }
  struct Entry {
    TablePtr table;
    bool temporary = false;
    std::optional<TableStats> stats;
    /// Hash indexes keyed by lower-cased column name.
    std::map<std::string, std::shared_ptr<const HashIndex>> indexes;
    /// Bytes currently charged against mem_ for this table.
    int64_t tracked_bytes = 0;
  };
  static std::string Key(const std::string& name);

  /// Re-charges `entry` against mem_ from its table's current ByteSize.
  /// Callers hold mu_ exclusively.
  void SyncTrackedLocked(Entry& entry);
  /// Releases `entry`'s outstanding charge. Callers hold mu_ exclusively.
  void ReleaseTrackedLocked(Entry& entry);

  /// Guards every container below; methods never call each other while
  /// holding it (BumpVersion excepted, which asserts nothing and only runs
  /// under the exclusive lock of its caller).
  mutable std::shared_mutex mu_;
  std::map<std::string, Entry> tables_;
  std::map<std::string, std::shared_ptr<SelectStmt>> views_;
  std::map<std::string, std::shared_ptr<VirtualTableProvider>> virtual_tables_;
  /// Persistent per-name mutation counters (never erased, even on drop).
  std::map<std::string, uint64_t> versions_;
  /// Storage accounting for every table this catalog owns.
  MemTracker mem_{"catalog", MemTracker::Process()};
};

}  // namespace dl2sql::db
