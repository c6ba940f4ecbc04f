#include "support/result_index.hpp"

#include <algorithm>

namespace repmpi::support {

std::size_t ResultIndex::add_log(const std::string& path) {
  ++logs_;
  ResultLogReader reader(path);
  ResultRecord rec;
  std::size_t ingested = 0;
  for (; reader.next(&rec); ++ingested) add(rec);
  last_log_torn_ = reader.dropped_tail();
  if (last_log_torn_) ++torn_logs_;
  return ingested;
}

void ResultIndex::add(const ResultRecord& rec) {
  ++records_;
  auto [it, fresh] = latest_.try_emplace(rec.key);
  IndexedResult& entry = it->second;
  if (fresh) {
    entry.runs = 1;
    entry.total_attempts = rec.attempts;
  } else {
    entry.runs += 1;
    entry.total_attempts += rec.attempts;
  }
  entry.record = rec;
  entry.log_id = logs_ == 0 ? 0 : logs_ - 1;
  entry.seq = seq_++;
}

const IndexedResult* ResultIndex::find(const std::string& key) const {
  const auto it = latest_.find(key);
  return it == latest_.end() ? nullptr : &it->second;
}

std::vector<const IndexedResult*> ResultIndex::query(
    const ResultQuery& q) const {
  std::vector<const IndexedResult*> out;
  // Prefix keys are contiguous in the ordered map: scan only that range.
  auto it = q.key_prefix.empty() ? latest_.begin()
                                 : latest_.lower_bound(q.key_prefix);
  for (; it != latest_.end(); ++it) {
    if (!q.key_prefix.empty() &&
        it->first.compare(0, q.key_prefix.size(), q.key_prefix) != 0)
      break;
    const IndexedResult& r = it->second;
    if (q.has_status && r.record.status != q.status) continue;
    if (q.failed_only && r.record.status == CellStatus::kOk) continue;
    if (r.runs < q.min_runs) continue;
    if (r.total_attempts < q.min_attempts) continue;
    out.push_back(&r);
  }
  return out;
}

std::vector<const IndexedResult*> ResultIndex::all() const {
  return query(ResultQuery{});
}

IndexStats ResultIndex::stats() const {
  IndexStats s;
  s.logs = logs_;
  s.torn_logs = torn_logs_;
  s.records = records_;
  s.keys = latest_.size();
  for (const auto& [key, r] : latest_) {
    switch (r.record.status) {
      case CellStatus::kOk: ++s.ok; break;
      case CellStatus::kCrash: ++s.crash; break;
      case CellStatus::kTimeout: ++s.timeout; break;
      case CellStatus::kExit: ++s.exit; break;
      case CellStatus::kCorrupt: ++s.corrupt; break;
    }
    s.total_attempts += r.total_attempts;
  }
  return s;
}

}  // namespace repmpi::support
