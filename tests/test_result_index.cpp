// Results-index tests: merging N result logs into latest-per-key state
// with deterministic last-ingested-wins semantics, per-key run/attempt
// aggregation, the query filters behind `repmpi_sweepctl query`, and
// torn-log tolerance (a SIGKILL'd writer's log contributes its consistent
// prefix, not an error).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "support/result_index.hpp"
#include "support/result_log.hpp"

namespace repmpi::support {
namespace {

std::string temp_log_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "repmpi_ridx_" + name;
  std::remove(path.c_str());
  std::remove((path + ".blob").c_str());
  return path;
}

ResultRecord make_record(const std::string& key, CellStatus status,
                         std::uint32_t attempts = 1,
                         const std::string& blob = "") {
  ResultRecord r;
  r.key = key;
  r.status = status;
  r.attempts = attempts;
  r.blob = blob;
  return r;
}

TEST(ResultIndex, SingleLogLatestPerKeyWithAggregates) {
  const std::string path = temp_log_path("single");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kCrash, 3));
    log.append(make_record("b", CellStatus::kOk, 1, "b-blob"));
    log.append(make_record("a", CellStatus::kOk, 2, "a-blob"));  // re-run
  }
  ResultIndex index;
  EXPECT_EQ(index.add_log(path), 3u);
  EXPECT_FALSE(index.last_log_torn());
  EXPECT_EQ(index.size(), 2u);

  const IndexedResult* a = index.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->record.status, CellStatus::kOk);  // latest record wins
  EXPECT_EQ(a->record.blob, "a-blob");
  EXPECT_EQ(a->runs, 2u);                        // both runs counted
  EXPECT_EQ(a->total_attempts, 5u);              // 3 + 2 across runs
  EXPECT_EQ(index.find("nope"), nullptr);
}

TEST(ResultIndex, RecordsAddedByAWriterMatchTheLogReadBack) {
  // The sweep core feeds each record it appends into add(): its live
  // per-key state must equal what an offline add_log() of the same log
  // reports.
  const std::string path = temp_log_path("live");
  ResultIndex live;
  {
    ResultLog log(path);
    for (const ResultRecord& r :
         {make_record("a", CellStatus::kCrash, 3),
          make_record("b", CellStatus::kOk, 1, "b1"),
          make_record("a", CellStatus::kOk, 1, "a2")}) {  // re-run succeeded
      log.append(r);
      live.add(r);
    }
  }
  ResultIndex read;
  read.add_log(path);
  for (const ResultIndex* index : {&live, &read}) {
    ASSERT_EQ(index->size(), 2u);
    EXPECT_EQ(index->find("a")->record.status, CellStatus::kOk);
    EXPECT_EQ(index->find("a")->record.blob, "a2");
    EXPECT_EQ(index->find("a")->runs, 2u);
    EXPECT_EQ(index->find("b")->record.blob, "b1");
    EXPECT_EQ(index->stats().records, 3u);
  }
}

TEST(ResultIndex, LaterLogWinsPerKey) {
  // A one-shot sweep's log plus a daemon incarnation's log: the daemon
  // re-ran cell "a"; ingest order decides the winner deterministically.
  const std::string older = temp_log_path("older");
  const std::string newer = temp_log_path("newer");
  {
    ResultLog log(older);
    log.append(make_record("a", CellStatus::kTimeout, 3));
    log.append(make_record("b", CellStatus::kOk, 1, "b1"));
  }
  {
    ResultLog log(newer);
    log.append(make_record("a", CellStatus::kOk, 1, "a2"));
    log.append(make_record("c", CellStatus::kOk, 1, "c1"));
  }
  ResultIndex index;
  index.add_log(older);
  index.add_log(newer);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.find("a")->record.status, CellStatus::kOk);
  EXPECT_EQ(index.find("a")->record.blob, "a2");
  EXPECT_EQ(index.find("a")->log_id, 1u);  // produced by the second log
  EXPECT_EQ(index.find("a")->runs, 2u);
  EXPECT_EQ(index.find("a")->total_attempts, 4u);
  EXPECT_EQ(index.find("b")->log_id, 0u);
}

TEST(ResultIndex, QueryFilters) {
  const std::string path = temp_log_path("query");
  {
    ResultLog log(path);
    log.append(make_record("hpccg.l2.d2.none", CellStatus::kOk, 1));
    log.append(make_record("hpccg.l2.d2.early_crash", CellStatus::kOk, 3));
    log.append(make_record("hpccg.l4.d3.none", CellStatus::kTimeout, 3));
    log.append(make_record("amg.l2.d2.none", CellStatus::kCrash, 2));
  }
  ResultIndex index;
  index.add_log(path);

  // Prefix: only the hpccg.l2 cells, key-sorted.
  ResultQuery q;
  q.key_prefix = "hpccg.l2.";
  auto hits = index.query(q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->record.key, "hpccg.l2.d2.early_crash");
  EXPECT_EQ(hits[1]->record.key, "hpccg.l2.d2.none");

  // failed_only: any non-ok terminal class.
  q = ResultQuery{};
  q.failed_only = true;
  hits = index.query(q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->record.key, "amg.l2.d2.none");
  EXPECT_EQ(hits[1]->record.key, "hpccg.l4.d3.none");

  // Exact status class.
  q = ResultQuery{};
  q.has_status = true;
  q.status = CellStatus::kTimeout;
  hits = index.query(q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->record.key, "hpccg.l4.d3.none");

  // min_attempts: the retry-heavy cells (robustness hot spots).
  q = ResultQuery{};
  q.min_attempts = 3;
  EXPECT_EQ(index.query(q).size(), 2u);

  // Everything, via the unfiltered accessor.
  EXPECT_EQ(index.all().size(), 4u);
}

TEST(ResultIndex, MinRunsFindsRepeatedlyExecutedCells) {
  const std::string path = temp_log_path("minruns");
  {
    ResultLog log(path);
    log.append(make_record("flappy", CellStatus::kCrash, 3));
    log.append(make_record("steady", CellStatus::kOk, 1));
    log.append(make_record("flappy", CellStatus::kOk, 2));
  }
  ResultIndex index;
  index.add_log(path);
  ResultQuery q;
  q.min_runs = 2;
  const auto hits = index.query(q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->record.key, "flappy");
}

TEST(ResultIndex, TornLogContributesConsistentPrefix) {
  const std::string path = temp_log_path("torn");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, 1, "a1"));
    log.append(make_record("b", CellStatus::kOk, 1, "b1"));
  }
  {
    // Half a record of garbage: a writer SIGKILL'd mid-append.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const std::string junk(ResultLog::kRecordSize / 2, 'X');
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  ResultIndex index;
  EXPECT_EQ(index.add_log(path), 2u);
  EXPECT_TRUE(index.last_log_torn());
  EXPECT_EQ(index.torn_logs(), 1u);
  EXPECT_EQ(index.size(), 2u);
}

TEST(ResultIndex, MissingLogIsEmptyNotAnError) {
  ResultIndex index;
  EXPECT_EQ(index.add_log(temp_log_path("missing")), 0u);
  EXPECT_FALSE(index.last_log_torn());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.all().empty());
}

TEST(ResultIndex, StatsAggregateAcrossLogs) {
  const std::string p1 = temp_log_path("stats1");
  const std::string p2 = temp_log_path("stats2");
  {
    ResultLog log(p1);
    log.append(make_record("a", CellStatus::kCrash, 3));
    log.append(make_record("b", CellStatus::kOk, 1));
  }
  {
    ResultLog log(p2);
    log.append(make_record("a", CellStatus::kOk, 2));
    log.append(make_record("c", CellStatus::kTimeout, 3));
  }
  ResultIndex index;
  index.add_log(p1);
  index.add_log(p2);
  const IndexStats s = index.stats();
  EXPECT_EQ(s.logs, 2u);
  EXPECT_EQ(s.torn_logs, 0u);
  EXPECT_EQ(s.records, 4u);  // superseded records still counted
  EXPECT_EQ(s.keys, 3u);
  EXPECT_EQ(s.ok, 2u);       // latest-per-key: a, b
  EXPECT_EQ(s.crash, 0u);    // a's crash was superseded
  EXPECT_EQ(s.timeout, 1u);
  EXPECT_EQ(s.total_attempts, 9u);  // 3 + 1 + 2 + 3
}

}  // namespace
}  // namespace repmpi::support
