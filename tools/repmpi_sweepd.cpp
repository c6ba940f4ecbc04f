// repmpi_sweepd — the long-running sweep service: a single-threaded daemon
// that accepts sweep-cell requests over a Unix-domain socket, executes them
// through the sweep core it shares with repmpi_sweep (tools/sweep_core.hpp:
// supervisor, result log, per-key state), and survives SIGKILL at any
// instant without losing accepted work.
//
//   repmpi_sweepd --spool=DIR [--jobs=N] [--nx=N] [--iters=N]
//                 [--timeout-sec=N] [--max-attempts=N]
//                 [--queue-depth=N] [--client-cap=N] [--sweep-bin=PATH]
//
// The spool directory is the daemon's whole durable state:
//   DIR/sweepd.sock   the listening socket (recreated on start)
//   DIR/results.bin   crash-safe result log (+ .blob) — terminal outcomes
//   DIR/queue.bin     crash-safe request log (+ .blob) — accepted submits
//
// Durability contract: a submit is acked only AFTER its request record is
// flushed to queue.bin. Each request record stores the cell key plus an
// *epoch* (in the record's attempts field): the number of terminal results
// the key had in results.bin when the request was accepted. A request is
// satisfied once the key's terminal-result count exceeds its epoch — so on
// restart the daemon replays queue.bin against results.bin and re-schedules
// exactly the accepted-but-unfinished requests, whether they were queued,
// mid-run, or mid-retry when the previous incarnation died. Re-submitting
// an already-completed cell (count > epoch at submit time is impossible;
// epoch = current count) schedules a fresh run; duplicate submits of a
// still-pending cell coalesce onto one run that satisfies all of them.
//
// Admission control (the explicit-NACK alternative to hanging clients):
//   --queue-depth   max cells not yet terminal; beyond it: NACK busy
//   --client-cap    max in-flight cells per connection: NACK client-cap
//   draining        SIGTERM or a drain command: NACK draining
// Every NACK is a bounded-time answer; the client library never retries
// NACKs internally, so backpressure is visible to callers immediately.
//
// Graceful drain (SIGTERM or `repmpi_sweepctl drain`): stop admitting,
// finish cells that already started (including their retries), park
// never-started cells — they stay durable in queue.bin and the next
// incarnation resumes them — then exit 0.
//
// Chaos knob: REPMPI_FAULT_DAEMON_KILL_AFTER=k — the daemon SIGKILLs
// itself after appending its k-th terminal result, emulating an operator
// `kill -9` mid-service; the chaos CI job restarts it and asserts the
// replayed sweep's dump is byte-identical to an uninterrupted run.

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <poll.h>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/options.hpp"
#include "support/sweep_client.hpp"
#include "sweep_common.hpp"
#include "sweep_core.hpp"

namespace repmpi::tools {
namespace {

using support::CellStatus;
using support::ResultRecord;
namespace wire = support::wire;

volatile sig_atomic_t g_drain_signal = 0;
void on_term_signal(int) { g_drain_signal = 1; }

void print_usage() {
  std::cout
      << "usage: repmpi_sweepd --spool=DIR [--jobs=N] [--nx=N] [--iters=N]\n"
         "                     [--timeout-sec=N] [--max-attempts=N]\n"
         "                     [--queue-depth=N] [--client-cap=N]\n"
         "                     [--sweep-bin=PATH]\n"
         "\n"
         "Long-running sweep service over DIR/sweepd.sock. Accepted submits\n"
         "are durable (DIR/queue.bin) before they are acked; results land\n"
         "in the crash-safe DIR/results.bin. SIGKILL + restart resumes all\n"
         "accepted-but-unfinished cells; SIGTERM drains gracefully.\n";
}

/// One client connection: framed request/response state plus the set of
/// cells this client submitted that are not yet terminal (the client-cap
/// admission unit).
struct Conn {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
  std::map<std::string, int> inflight;  ///< key -> outstanding submits
  bool closing = false;

  std::size_t inflight_total() const {
    std::size_t n = 0;
    for (const auto& [key, c] : inflight) n += static_cast<std::size_t>(c);
    return n;
  }
};

class SweepDaemon {
 public:
  explicit SweepDaemon(const support::Options& opt, const char* argv0);
  ~SweepDaemon();
  int serve();

 private:
  void resume_queue();
  void open_socket();
  void begin_drain(const char* why);
  void on_record(const ResultRecord& rec);
  void schedule(const std::string& key);
  void poll_sockets(int timeout_ms);
  void handle_frames(Conn& conn);
  wire::Frame dispatch(Conn& conn, const wire::Frame& req);
  wire::Frame handle_submit(Conn& conn, const wire::Frame& req);
  void reply(Conn& conn, const wire::Frame& f);
  void flush(Conn& conn);
  void close_conn(Conn& conn);

  std::string spool_;
  std::string socket_path_;
  long queue_depth_ = 64;
  long client_cap_ = 8;

  /// results.bin plus the supervisor; its per-key run count is the epoch
  /// clock queue records are compared against.
  std::unique_ptr<SweepCore> core_;
  std::unique_ptr<support::ResultLog> queue_;
  /// Supervisor enqueues not yet terminal, per key (0 or 1 in steady
  /// state: duplicate pending submits coalesce).
  std::unordered_map<std::string, std::uint32_t> outstanding_;

  int listen_fd_ = -1;
  std::deque<Conn> conns_;
  bool draining_ = false;
};

SweepDaemon::SweepDaemon(const support::Options& opt, const char* argv0) {
  spool_ = opt.get("spool");
  if (spool_.empty() || spool_ == "true")
    throw support::UsageError("repmpi_sweepd: --spool=DIR is required");
  ::mkdir(spool_.c_str(), 0777);  // fine if it already exists
  socket_path_ = spool_ + "/sweepd.sock";

  SweepCoreConfig cfg = core_config(opt, "repmpi_sweepd");
  cfg.log_path = spool_ + "/results.bin";
  queue_depth_ = ranged_option(opt, "repmpi_sweepd", "queue-depth", 64, 1,
                               100000);
  client_cap_ = ranged_option(opt, "repmpi_sweepd", "client-cap", 8, 1,
                              100000);
  // Service retries must not self-synchronize: a brownout failing every
  // running cell at once would otherwise retry them in lockstep forever.
  cfg.backoff_jitter_seed = 0x53575044u;  // deterministic per (key, retry)
  cfg.kill_after_env = "REPMPI_FAULT_DAEMON_KILL_AFTER";

  // The worker binary: repmpi_sweep --worker, by default the sibling of
  // this executable (both live in the build tree's top level).
  cfg.worker_bin = opt.get("sweep-bin");
  if (cfg.worker_bin.empty() || cfg.worker_bin == "true") {
    const std::string self = self_exe(argv0);
    const auto slash = self.rfind('/');
    cfg.worker_bin = (slash == std::string::npos ? std::string(".")
                                                 : self.substr(0, slash)) +
                     "/repmpi_sweep";
  }

  core_ = std::make_unique<SweepCore>(
      std::move(cfg), [this](const ResultRecord& rec) { on_record(rec); });
  if (core_->log().recovered_torn_tail())
    std::cout << "[sweepd] results.bin: dropped a torn trailing record "
                 "(previous incarnation died mid-append)\n";
}

SweepDaemon::~SweepDaemon() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
  }
}

void SweepDaemon::resume_queue() {
  // Replay the durable request log against the result counts: a record
  // with epoch e is satisfied once its key has more than e terminal
  // results. Whatever is left is the work a previous incarnation accepted
  // (and acked) but never finished.
  const std::string qpath = spool_ + "/queue.bin";
  std::map<std::string, std::uint64_t> need;  ///< key -> required count
  std::size_t total = 0, unsatisfied = 0;
  {
    support::ResultLogReader reader(qpath);
    ResultRecord rec;
    while (reader.next(&rec)) {
      ++total;
      const std::uint64_t epoch = rec.attempts;
      if (core_->runs(rec.key) > epoch) continue;  // satisfied before restart
      ++unsatisfied;
      auto [nit, fresh] = need.try_emplace(rec.key, epoch + 1);
      if (!fresh && epoch + 1 > nit->second) nit->second = epoch + 1;
    }
    if (reader.dropped_tail())
      std::cout << "[sweepd] queue.bin: dropped a torn trailing record "
                   "(its submit was never acked — nothing lost)\n";
  }

  if (total > 0 && unsatisfied == 0) {
    // Everything accepted so far is done: compact the request log so it
    // does not grow without bound across incarnations. Queue records have
    // empty blobs, so losing the files here just means an empty queue —
    // which is exactly the state being recorded.
    ::unlink(qpath.c_str());
    ::unlink((qpath + ".blob").c_str());
    std::cout << "[sweepd] queue.bin: compacted (" << total
              << " satisfied request(s) discarded)\n";
  }
  queue_ = std::make_unique<support::ResultLog>(qpath);
  if (queue_->recovered_torn_tail())
    std::cout << "[sweepd] queue.bin: truncated torn tail on reopen\n";

  for (const auto& [key, required] : need)
    for (std::uint64_t i = core_->runs(key); i < required; ++i) schedule(key);
  if (!need.empty())
    std::cout << "[sweepd] resume: re-scheduled " << need.size()
              << " accepted-but-unfinished cell(s) from queue.bin\n";
}

void SweepDaemon::open_socket() {
  ::unlink(socket_path_.c_str());  // stale socket from a SIGKILL'd run
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path))
    throw support::UsageError("repmpi_sweepd: spool path too long for a "
                              "Unix socket: " + socket_path_);
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  // CLOEXEC everywhere: worker processes must not inherit the service's
  // sockets (a stalled worker would otherwise hold client connections and
  // the listen socket open long after the daemon is gone).
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  REPMPI_CHECK_MSG(listen_fd_ >= 0, "socket() failed");
  REPMPI_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "bind(" << socket_path_ << ") failed: "
                           << std::strerror(errno));
  REPMPI_CHECK_MSG(::listen(listen_fd_, 64) == 0, "listen() failed");
}

void SweepDaemon::schedule(const std::string& key) {
  Cell cell;
  REPMPI_CHECK_MSG(parse_key(key, &cell), "unparseable queued key " << key);
  core_->schedule(key);
  ++outstanding_[key];
}

void SweepDaemon::on_record(const ResultRecord& rec) {
  auto it = outstanding_.find(rec.key);
  if (it != outstanding_.end() && it->second > 0 && --it->second == 0)
    outstanding_.erase(it);
  for (Conn& c : conns_) c.inflight.erase(rec.key);
}

void SweepDaemon::begin_drain(const char* why) {
  if (draining_) return;
  draining_ = true;
  support::Supervisor& sup = core_->supervisor();
  sup.hold_first_attempts(true);
  std::cout << "[sweepd] draining (" << why << "): finishing "
            << sup.in_flight() << " in-flight cell(s), parking "
            << sup.queued_fresh() << " queued cell(s)\n";
}

wire::Frame SweepDaemon::handle_submit(Conn& conn, const wire::Frame& req) {
  wire::Frame resp;
  resp.request_id = req.request_id;
  const std::string& key = req.payload;
  const auto nack = [&resp](std::uint16_t code, const std::string& detail) {
    resp.type = wire::kNack;
    resp.status = code;
    resp.payload = detail;
    return resp;
  };

  if (draining_) return nack(wire::kNackDraining, "daemon is draining");
  Cell cell;
  if (key.size() > support::ResultLog::kMaxKeyLen || !parse_key(key, &cell))
    return nack(wire::kNackBadRequest, "unparseable cell key");
  if (conn.inflight_total() >= static_cast<std::size_t>(client_cap_) &&
      conn.inflight.count(key) == 0)
    return nack(wire::kNackClientCap, "client in-flight cap reached");
  const bool needs_run = outstanding_.count(key) == 0;
  if (needs_run &&
      core_->supervisor().active() >= static_cast<std::size_t>(queue_depth_))
    return nack(wire::kNackBusy, "queue depth reached");

  // Durability before the ack: the request record hits disk first, so a
  // SIGKILL after this point cannot lose an acked submit.
  const std::uint64_t epoch = core_->runs(key);
  ResultRecord qrec;
  qrec.key = key;
  qrec.status = CellStatus::kOk;  // unused for queue records
  qrec.attempts = static_cast<std::uint32_t>(epoch);
  try {
    queue_->append(qrec);
  } catch (const std::exception& e) {
    return nack(wire::kNackInternal, e.what());
  }
  if (needs_run) schedule(key);
  ++conn.inflight[key];

  resp.type = wire::kAck;
  resp.payload = needs_run ? "queued" : "coalesced";
  return resp;
}

wire::Frame SweepDaemon::dispatch(Conn& conn, const wire::Frame& req) {
  wire::Frame resp;
  resp.request_id = req.request_id;
  resp.type = wire::kAck;
  char line[256];
  switch (req.type) {
    case wire::kHello:
      std::snprintf(line, sizeof(line), "repmpi_sweepd pid=%ld spool=%s",
                    static_cast<long>(::getpid()), spool_.c_str());
      resp.payload = line;
      return resp;
    case wire::kSubmit:
      return handle_submit(conn, req);
    case wire::kStatus: {
      const support::Supervisor& sup = core_->supervisor();
      std::snprintf(line, sizeof(line),
                    "active=%zu running=%zu fresh=%zu draining=%d keys=%zu "
                    "results=%zu",
                    sup.active(), sup.running(), sup.queued_fresh(),
                    draining_ ? 1 : 0, core_->index().size(),
                    core_->log().records().size());
      resp.payload = line;
      return resp;
    }
    case wire::kQuery: {
      const std::string& key = req.payload;
      if (outstanding_.count(key) > 0) {
        resp.payload = "scheduled";
      } else if (const auto* r = core_->index().find(key); r != nullptr) {
        std::snprintf(line, sizeof(line), "done status=%s attempts=%u code=%d",
                      support::to_string(r->record.status),
                      r->record.attempts, r->record.code);
        resp.payload = line;
      } else {
        resp.payload = "unknown";
      }
      return resp;
    }
    case wire::kDrain:
      begin_drain("drain command");
      resp.payload = "draining";
      return resp;
    default:
      resp.type = wire::kNack;
      resp.status = wire::kNackBadRequest;
      resp.payload = "unknown command type";
      return resp;
  }
}

void SweepDaemon::reply(Conn& conn, const wire::Frame& f) {
  conn.outbuf += wire::encode_frame(f);
  flush(conn);
}

void SweepDaemon::flush(Conn& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    conn.closing = true;  // peer went away
    return;
  }
}

void SweepDaemon::handle_frames(Conn& conn) {
  for (;;) {
    wire::Frame req;
    std::size_t consumed = 0;
    switch (wire::decode_frame(conn.inbuf.data(), conn.inbuf.size(), &req,
                               &consumed)) {
      case wire::DecodeStatus::kFrame:
        conn.inbuf.erase(0, consumed);
        if (req.type == wire::kAck || req.type == wire::kNack) {
          conn.closing = true;  // clients do not send responses
          return;
        }
        reply(conn, dispatch(conn, req));
        continue;
      case wire::DecodeStatus::kCorrupt:
        // A frame that fails magic/CRC checks means the stream is not
        // trustworthy: close rather than guess at resynchronization.
        conn.closing = true;
        return;
      case wire::DecodeStatus::kNeedMore:
        if (conn.inbuf.size() > wire::kHeaderSize + wire::kMaxPayload)
          conn.closing = true;  // oversized frame claim
        return;
    }
  }
}

void SweepDaemon::close_conn(Conn& conn) {
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  // The client-cap admission unit dies with the connection; its accepted
  // work keeps running (it is durable in queue.bin regardless).
  conn.inflight.clear();
}

void SweepDaemon::poll_sockets(int timeout_ms) {
  std::vector<struct pollfd> fds;
  fds.push_back({listen_fd_, POLLIN, 0});
  for (Conn& c : conns_) {
    short events = POLLIN;
    if (!c.outbuf.empty()) events |= POLLOUT;
    fds.push_back({c.fd, events, 0});
  }
  const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rc < 0 && errno != EINTR) throw support::Error("sweepd: poll() failed");
  if (rc <= 0) return;

  if ((fds[0].revents & POLLIN) != 0) {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;
      Conn c;
      c.fd = fd;
      conns_.push_back(std::move(c));
    }
  }

  for (std::size_t i = 0; i + 1 < fds.size() && i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    const short revents = fds[i + 1].revents;
    if ((revents & POLLOUT) != 0) flush(c);
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.inbuf.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) c.closing = true;  // peer closed
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR)
          c.closing = true;
        break;
      }
      if (!c.closing) handle_frames(c);
    }
  }

  for (std::size_t i = 0; i < conns_.size();) {
    if (conns_[i].closing && conns_[i].outbuf.empty()) {
      close_conn(conns_[i]);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

int SweepDaemon::serve() {
  support::Supervisor& sup = core_->supervisor();
  resume_queue();
  open_socket();
  std::cout << "[sweepd] serving on " << socket_path_ << " ("
            << core_->index().size() << " key(s) on record, " << sup.active()
            << " resumed cell(s))\n";
  std::cout.flush();

  while (true) {
    if (g_drain_signal != 0) begin_drain("SIGTERM");
    if (draining_ && sup.in_flight() == 0) break;
    poll_sockets(20);
    sup.step(0);
  }

  const std::size_t parked = sup.queued_fresh();
  std::cout << "[sweepd] drained: " << core_->log().records().size()
            << " result(s) on record, " << parked
            << " cell(s) parked for the next incarnation\n";
  return 0;
}

int driver(int argc, char** argv) {
  support::Options opt(argc, argv,
                       {"spool", "jobs", "nx", "iters", "timeout-sec",
                        "max-attempts", "queue-depth", "client-cap",
                        "sweep-bin"});
  if (opt.get_bool("help", false)) {
    print_usage();
    return 0;
  }

  struct sigaction sa{};
  sa.sa_handler = on_term_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  try {
    SweepDaemon daemon(opt, argv[0]);
    return daemon.serve();
  } catch (const support::UsageError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "repmpi_sweepd: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace repmpi::tools

int main(int argc, char** argv) { return repmpi::tools::driver(argc, argv); }
