#pragma once

// Queryable in-memory index over N binary result logs — the read side of
// the sweep service. A daemon (or several daemon incarnations, or a mix of
// one-shot sweeps and daemons) leaves behind append-only logs; the index
// scans and merges them into latest-result-per-key state that powers
// `repmpi_sweepctl status|query|dump` and `repmpi_sweep --dump`.
//
// Merge rule, deterministic by construction: logs are ingested in the order
// add_log() is called, records within a log in append order, and the last
// record ingested for a key wins. Per-key run/attempt totals aggregate
// over every record, not just the winning one — "how many times did this
// cell execute" is a robustness signal the winning record alone cannot
// carry.
//
// Torn-log tolerance is inherited from ResultLogReader: a log whose tail
// was torn by a SIGKILL'd writer contributes its consistent prefix and is
// counted in torn_logs(); a missing file contributes nothing (not an
// error — a fresh daemon has no results yet).
//
// add() ingests one record directly: the sweep core feeds every record it
// appends, so a live writer's per-key state is this same index.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/result_log.hpp"

namespace repmpi::support {

/// The index's view of one scenario key: the winning (latest) record plus
/// aggregates over every record seen for the key.
struct IndexedResult {
  ResultRecord record;             ///< latest record for the key
  std::size_t log_id = 0;          ///< add_log() ordinal that produced it
  std::uint64_t seq = 0;           ///< global ingest order of that record
  std::uint32_t runs = 1;          ///< terminal records seen for this key
  std::uint64_t total_attempts = 0;  ///< summed attempts across those runs
};

/// Filter for ResultIndex::query. Default-constructed matches everything.
struct ResultQuery {
  std::string key_prefix;  ///< empty = any key
  bool has_status = false;
  CellStatus status = CellStatus::kOk;  ///< exact class, if has_status
  bool failed_only = false;             ///< any non-kOk terminal class
  std::uint32_t min_runs = 0;        ///< at least this many recorded runs
  std::uint64_t min_attempts = 0;    ///< at least this many total attempts
};

struct IndexStats {
  std::size_t logs = 0;
  std::size_t torn_logs = 0;
  std::uint64_t records = 0;  ///< every record ingested, superseded included
  std::size_t keys = 0;
  std::uint64_t ok = 0;      ///< latest-per-key status counts
  std::uint64_t crash = 0;
  std::uint64_t timeout = 0;
  std::uint64_t exit = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t total_attempts = 0;  ///< summed over every ingested record
};

class ResultIndex {
 public:
  /// Scans one log (consistent prefix only) into the index. Returns the
  /// number of records ingested; 0 for a missing or empty log.
  std::size_t add_log(const std::string& path);

  /// Ingests one record as the latest for its key, attributed to the most
  /// recent add_log() (log_id 0 when there was none).
  void add(const ResultRecord& rec);

  /// True when the most recent add_log() hit a torn/corrupt tail.
  bool last_log_torn() const { return last_log_torn_; }
  std::size_t torn_logs() const { return torn_logs_; }

  /// Latest result for a key; null when the key was never recorded.
  const IndexedResult* find(const std::string& key) const;

  /// Latest-per-key results matching the filter, key-sorted.
  std::vector<const IndexedResult*> query(const ResultQuery& q) const;

  /// Every latest-per-key result, key-sorted — dump order.
  std::vector<const IndexedResult*> all() const;

  IndexStats stats() const;

  std::size_t size() const { return latest_.size(); }

 private:
  std::map<std::string, IndexedResult> latest_;
  std::size_t logs_ = 0;
  std::size_t torn_logs_ = 0;
  bool last_log_torn_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t records_ = 0;
};

}  // namespace repmpi::support
