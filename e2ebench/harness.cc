// End-to-end benchmark harness: one process hosts a corpus through a
// BundleCatalog directory of format-v4 bundle files behind a loopback
// NetServer (what `xcrypt_serve --catalog DIR --allow-updates` runs), and
// drives it through DasSystem::Remote() with the default ClientTuning.
// Every answer is checked against GroundTruth on the owner's current
// plaintext.
//
//   e2ebench_harness --workload nasa-read|dblp-large|hospital-update
//                    --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--trace-out FILE]
//
// (--workload hospital-insert reproduces a known defect; see Workloads().)
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
// split instead: each traced query is replayed call by call (translate,
// cache probe, RPC on the harness's own session, post-processing) inside
// one obs::Trace, and its captured response is replayed through ParseXml
// and the block cipher to split cipher, block parse and skeleton parse.
// The last stdout line is one JSON object (see stats.h).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "common/cpu_features.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/client.h"
#include "crypto/aes_kernel.h"
#include "das/das_system.h"
#include "data/healthcare.h"
#include "data/workload.h"
#include "e2ebench/stats.h"
#include "net/catalog.h"
#include "net/remote_engine.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/serializer.h"
#include "xml/parser.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace xcrypt {
namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr char kSecret[] = "e2ebench-owner-secret";

// --- workloads -------------------------------------------------------------

enum class CorpusKind { kNasa, kDblp, kHospital };

struct WorkloadSpec {
  const char* name;
  CorpusKind corpus;
  int scale;  ///< corpus size knob (see MakeCorpus)
  /// The read set: BuildWorkload's 10 queries per class, drawn with
  /// `workload_seed`.
  std::vector<WorkloadKind> classes;
  uint64_t workload_seed;
  int client_threads;
  /// Share of loop operations that are writes (0 = read-only loop).
  double write_share;
  /// Share of writes that insert a record; the rest update one leaf.
  double insert_share;
  /// Read-only workloads run this many value updates around their loops
  /// (half before, half after), so every workload reports write latency
  /// on its own corpus.
  int probe_writes;
};

/// Fixed, like the corpora, so every run asks the same read set; the run
/// seed varies the request stream: query order, write targets and values.
constexpr uint64_t kWorkloadSeed = 2006;

/// Untimed steady-state warm-up before the measured window: the first
/// seconds after set-up run slower (page faults on the fresh mapping,
/// allocator growth) and are not what a long-running daemon serves.
constexpr double kWarmupSeconds = 2.0;

/// The workloads BENCHMARK.json lists, plus hospital-insert: the
/// hospital-update mix with one write in five an InsertSubtree of a
/// patient. It fails today, so BENCHMARK.json leaves it out and no listed
/// workload inserts: an insert makes public tags of the fragment (SSN, age,
/// doctor) mixed, and PlanShapeKey keys a mixed-tag kIndexRange predicate
/// by its OPESS range alone, without the plaintext literal — two equality
/// predicates on such a tag whose literals the (insert-only) value index
/// does not hold share one cached plan, and the second query gets the
/// first one's answer. Its read set comes from workload seed 1, which
/// holds two such predicates on `age`, so the failure shows within
/// seconds.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"nasa-read", CorpusKind::kNasa, 2,
       {WorkloadKind::kQs, WorkloadKind::kQm, WorkloadKind::kQl}, kWorkloadSeed,
       2, 0.0, 0.0, 400},
      {"dblp-large", CorpusKind::kDblp, 4, {WorkloadKind::kQm, WorkloadKind::kQl},
       kWorkloadSeed, 1, 0.0, 0.0, 80},
      {"hospital-update", CorpusKind::kHospital, 400,
       {WorkloadKind::kQm, WorkloadKind::kQl}, kWorkloadSeed, 1, 0.10, 0.0, 0},
      {"hospital-insert", CorpusKind::kHospital, 400,
       {WorkloadKind::kQm, WorkloadKind::kQl}, 1, 1, 0.10, 0.2, 0},
  };
  return kSpecs;
}

/// The three corpora, fixed datasets as in the paper's experiments: NASA
/// and DBLP as the repository's benches build them at `scale`, the
/// hospital with `scale` patients as bench_update_pipeline builds it.
bench::Corpus MakeCorpus(const WorkloadSpec& spec) {
  switch (spec.corpus) {
    case CorpusKind::kNasa:
      return bench::MakeNasa(spec.scale);
    case CorpusKind::kDblp:
      return bench::MakeDblp(spec.scale);
    case CorpusKind::kHospital:
      return {"hospital", BuildHospital(spec.scale, 4242),
              HealthcareConstraints()};
  }
  return {};
}

/// Write targets of one corpus: record keys that occur exactly once, so a
/// value update binds exactly one leaf.
struct WriteTargets {
  CorpusKind corpus = CorpusKind::kHospital;
  std::vector<std::string> keys;

  std::string UpdatePath(const std::string& key) const {
    switch (corpus) {
      case CorpusKind::kNasa:
        return "//dataset[altname='" + key + "']/reference/source/other/city";
      case CorpusKind::kDblp:
        return "//person[@id='" + key + "']/organization";
      case CorpusKind::kHospital:
        return "//patient[SSN='" + key + "']/age";
    }
    return "";
  }

  std::string NewValue(int uid) const {
    switch (corpus) {
      case CorpusKind::kNasa:
        return "Probe City " + std::to_string(uid);
      case CorpusKind::kDblp:
        return "Probe Institute " + std::to_string(uid);
      case CorpusKind::kHospital:
        return std::to_string(18 + uid % 73);
    }
    return "";
  }
};

/// A new patient, for the workload that inserts (hospital-insert).
Document PatientFragment(int uid) {
  Document frag;
  const NodeId p = frag.AddRoot("patient");
  frag.AddLeaf(p, "SSN", std::to_string(900000 + uid));
  frag.AddLeaf(p, "pname", "Probe" + std::to_string(uid));
  const NodeId treat = frag.AddChild(p, "treat");
  frag.AddLeaf(treat, "disease", "influenza");
  frag.AddLeaf(treat, "doctor", "Harness");
  frag.AddLeaf(p, "age", std::to_string(18 + uid % 73));
  return frag;
}

WriteTargets FindWriteTargets(CorpusKind corpus, const Document& doc) {
  const char* key_tag = corpus == CorpusKind::kNasa   ? "altname"
                        : corpus == CorpusKind::kDblp ? "id"
                                                      : "SSN";
  const bool key_is_attribute = corpus == CorpusKind::kDblp;
  std::map<std::string, int> seen;
  for (NodeId id = 0; id < doc.node_count(); ++id) {
    const Node& n = doc.node(id);
    if (n.tag == key_tag && n.is_attribute == key_is_attribute) ++seen[n.value];
  }
  WriteTargets targets;
  targets.corpus = corpus;
  for (const auto& [key, count] : seen) {
    if (count == 1) targets.keys.push_back(key);
  }
  return targets;
}

// --- measurement records ---------------------------------------------------

/// Per-layer sums over traced queries; every field is a total, divided by
/// `queries` at report time (means add up, so the layers and the residual
/// sum to the wall time exactly).
struct LayerSums {
  int64_t queries = 0;
  double wall_us = 0, translate_us = 0, probe_us = 0, rpc_us = 0;
  double post_us = 0, decrypt_us = 0, splice_us = 0, requery_us = 0;
  double server_us = 0, rx_bytes = 0;
  std::map<std::string, double> server_phase_us;
  // Replay of the captured responses.
  double skeleton_parse_us = 0, skeleton_bytes = 0;
  double block_parse_us = 0, block_bytes = 0;
  double cipher_us = 0, cipher_bytes = 0;

  void Add(const LayerSums& o) {
    queries += o.queries;
    wall_us += o.wall_us;
    translate_us += o.translate_us;
    probe_us += o.probe_us;
    rpc_us += o.rpc_us;
    post_us += o.post_us;
    decrypt_us += o.decrypt_us;
    splice_us += o.splice_us;
    requery_us += o.requery_us;
    server_us += o.server_us;
    rx_bytes += o.rx_bytes;
    for (const auto& [name, us] : o.server_phase_us) server_phase_us[name] += us;
    skeleton_parse_us += o.skeleton_parse_us;
    skeleton_bytes += o.skeleton_bytes;
    block_parse_us += o.block_parse_us;
    block_bytes += o.block_bytes;
    cipher_us += o.cipher_us;
    cipher_bytes += o.cipher_bytes;
  }
};

/// One span of the written-out trace: name, start, end, parent (index
/// within the same request, -1 for the root) and request id.
struct SpanOut {
  uint64_t request = 0;
  std::string name;
  double start_us = 0, end_us = 0;
  int parent = -1;
};

/// What one client thread measured.
struct ThreadRecord {
  std::vector<double> read_us;           ///< untraced reads
  std::vector<double> read_end_s;        ///< their end, from loop start
  std::vector<double> op_end_s;          ///< every loop operation's end
  std::vector<double> traced_read_us;    ///< traced reads (wall span)
  std::vector<double> update_us, insert_us;
  std::vector<double> update_end_s, insert_end_s;  ///< from loop start
  double rx_bytes = 0;                   ///< over untraced reads
  int64_t attempted = 0, failed = 0;
  LayerSums layers;
  std::vector<SpanOut> spans;
};

void MergeInto(ThreadRecord* into, const ThreadRecord& from) {
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&into->read_us, from.read_us);
  append(&into->read_end_s, from.read_end_s);
  append(&into->op_end_s, from.op_end_s);
  append(&into->traced_read_us, from.traced_read_us);
  append(&into->update_us, from.update_us);
  append(&into->insert_us, from.insert_us);
  append(&into->update_end_s, from.update_end_s);
  append(&into->insert_end_s, from.insert_end_s);
  into->rx_bytes += from.rx_bytes;
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->layers.Add(from.layers);
  into->spans.insert(into->spans.end(), from.spans.begin(), from.spans.end());
}

struct WriteRecord {
  double apply_us = 0, delta_bytes = 0, owner_us = 0;
  int64_t writes = 0;
};

/// Host CPU time counters (/proc/stat, all CPUs): the share a hypervisor
/// stole from this machine during the measured window goes in the stamp,
/// since it explains runs that came out slow for reasons outside xcrypt,
/// and the steal filter (stats.h) drops the windows where it stole most.
struct CpuTimes {
  double steal = 0, total = 0;
  double busy = 0;  ///< user, nice, system, irq and softirq time
};

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes times;
  for (int field = 0; field < 10 && stat; ++field) {
    double value = 0;
    stat >> value;
    times.total += field < 8 ? value : 0;  // guest time is inside user time
    if (field == 7) times.steal = value;
    if (field < 7 && field != 3 && field != 4) times.busy += value;
  }
  return times;
}

/// Steal share of the interval between two readings.
double StealShareBetween(const CpuTimes& from, const CpuTimes& to) {
  return StealShare(to.steal - from.steal, to.busy - from.busy);
}

/// Reads the host's CPU counters every kStealWindowSeconds on its own
/// thread while one phase of the benchmark runs.
class StealSampler {
 public:
  StealSampler() {
    Sample();
    thread_ = std::thread([this] { Run(); });
  }
  ~StealSampler() { Join(); }

  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Ends the phase; its windows' times are seconds from `origin`.
  QuietWindows Finish(Clock::time_point origin) {
    Join();
    Sample();
    std::vector<double> bounds, shares;
    for (size_t j = 0; j < samples_.size(); ++j) {
      bounds.push_back(
          std::chrono::duration<double>(samples_[j].first - origin).count());
      if (j > 0) {
        shares.push_back(
            StealShareBetween(samples_[j - 1].second, samples_[j].second));
      }
    }
    return QuietWindows(std::move(bounds), shares);
  }

 private:
  void Sample() { samples_.emplace_back(Clock::now(), ReadCpuTimes()); }

  void Run() {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kStealWindowSeconds));
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      Sample();
    }
  }

  void Join() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  std::vector<std::pair<Clock::time_point, CpuTimes>> samples_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- the benchmark ---------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec) {}
  ~Bench() { TearDown(/*remove_files=*/true); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Main();

 private:
  /// Generate, host, save, open the catalog, serve, connect, warm up.
  /// Returns the timed set-up seconds (bookkeeping excluded).
  Result<double> SetUp(int rep);
  /// Starts the daemon over the catalog directory and attaches the owner.
  Status Serve();
  void TearDown(bool remove_files);

  /// One read through DasSystem::Execute, checked. Returns wall µs or -1.
  double ReadUntraced(size_t qi, ThreadRecord* rec);
  /// One read replayed call by call inside a trace, checked and replayed.
  double ReadTraced(size_t qi, uint64_t request, ThreadRecord* rec);
  /// One owner write (value update or subtree insert), timed to the ack.
  bool Write(bool insert, Rng& rng, ThreadRecord* rec);
  bool Check(size_t qi, const QueryAnswer& answer);
  void RefreshExpected();

  void ClientLoop(int thread, Clock::time_point deadline, ThreadRecord* rec);
  /// Runs every client thread's closed loop for `seconds`; returns the
  /// merged record and the loop's wall seconds.
  ThreadRecord RunLoop(double seconds, double* wall_s);
  double SinceLoopStart() const {
    return std::chrono::duration<double>(Clock::now() - loop_start_).count();
  }
  /// One burst of the write probe of a read-only workload: `writes` value
  /// updates, sampled for host steal; appends each acknowledged write's
  /// steal exposure to `exposures`, in the order of rec->update_us.
  void ProbeWrites(int writes, Rng& rng, ThreadRecord* rec,
                   std::vector<double>* exposures);
  /// Verifies daemon counters, restarts the daemon over the same catalog
  /// directory, and re-runs the read set. Returns false on any mismatch.
  bool RestartCheck(ThreadRecord* rec);

  obs::HistogramSnapshot UpdateHistogram() const;
  uint64_t DaemonCounter(const std::string& name) const;

  const Args args_;
  const WorkloadSpec& spec_;
  const std::string db_ = "bench";

  fs::path catalog_dir_;
  std::unique_ptr<DasSystem> das_;
  std::unique_ptr<net::NetServer> server_;
  /// The harness's own session to the daemon (traced reads).
  std::unique_ptr<net::RemoteServerEngine> session_;

  std::vector<WorkloadQuery> queries_;
  std::vector<QueryAnswer> expected_;
  bool expected_stale_ = false;  ///< an acknowledged write since refresh
  WriteTargets targets_;
  int next_uid_ = 1;
  int64_t acked_writes_ = 0;
  WriteRecord writes_;

  // Corpus facts for the stamp.
  std::string corpus_name_;
  int corpus_nodes_ = 0;
  int64_t plaintext_bytes_ = 0, bundle_bytes_ = 0;

  Clock::time_point epoch_ = Clock::now();
  /// Start of the current timed phase (a RunLoop, set before its threads
  /// start, or a probe burst), and the RunLoop ordinal.
  Clock::time_point loop_start_;
  uint64_t loop_number_ = 0;
  std::atomic<uint64_t> next_request_{0};
  std::mutex log_mu_;
  int logged_failures_ = 0;
};

void Bench::TearDown(bool remove_files) {
  session_.reset();
  if (das_ != nullptr) das_->Remote().Disconnect();
  server_.reset();  // graceful drain
  das_.reset();
  if (remove_files && !catalog_dir_.empty()) {
    std::error_code ec;
    fs::remove_all(catalog_dir_, ec);
    catalog_dir_.clear();
  }
}

Status Bench::Serve() {
  auto catalog = net::BundleCatalog::Open(catalog_dir_.string());
  if (!catalog.ok()) return catalog.status();
  net::NetServerOptions options;
  options.default_db = db_;
  options.accept_updates = true;
  auto server = net::NetServer::Serve(net::ServerConfig::ForCatalog(
      std::move(*catalog), "127.0.0.1", 0, options));
  if (!server.ok()) return server.status();
  server_ = std::move(*server);
  return das_->Remote().Connect("127.0.0.1", server_->port(), db_);
}

Result<double> Bench::SetUp(int rep) {
  Stopwatch watch;
  bench::Corpus corpus = MakeCorpus(spec_);
  double timed_us = watch.ElapsedMicros();

  // Bookkeeping, untimed: the read set, its expected answers, the write
  // targets and the corpus facts.
  if (rep == 0) {
    for (const WorkloadKind kind : spec_.classes) {
      for (WorkloadQuery& q :
           BuildWorkload(corpus.doc, kind, 10, spec_.workload_seed)) {
        queries_.push_back(std::move(q));
      }
    }
    targets_ = FindWriteTargets(spec_.corpus, corpus.doc);
    corpus_name_ = corpus.name;
    corpus_nodes_ = corpus.doc.node_count();
    plaintext_bytes_ = static_cast<int64_t>(SerializeXml(corpus.doc).size());
  }
  expected_.clear();
  for (const WorkloadQuery& q : queries_) {
    expected_.push_back(GroundTruth(corpus.doc, q.expr));
  }
  expected_stale_ = false;
  acked_writes_ = 0;

  catalog_dir_ = fs::path(args_.work_dir) /
                 ("catalog-" + std::to_string(getpid()) + "-" +
                  std::to_string(rep));
  std::error_code ec;
  fs::remove_all(catalog_dir_, ec);
  fs::create_directories(catalog_dir_, ec);
  if (ec) return Status::Internal("cannot create " + catalog_dir_.string());
  const fs::path bundle_path = catalog_dir_ / (db_ + ".xcr");

  watch.Restart();
  auto das = DasSystem::Host(std::move(corpus.doc),
                             std::move(corpus.constraints),
                             SchemeKind::kOptimal, kSecret);
  if (!das.ok()) return das.status();
  das_ = std::make_unique<DasSystem>(std::move(*das));
  XCRYPT_RETURN_NOT_OK(SaveBundle(das_->client().database(),
                                  das_->client().metadata(),
                                  bundle_path.string(), db_,
                                  das_->bundle_generation(),
                                  BundleFormat::kV4));
  XCRYPT_RETURN_NOT_OK(Serve());
  timed_us += watch.ElapsedMicros();
  bundle_bytes_ = static_cast<int64_t>(fs::file_size(bundle_path, ec));

  if (args_.trace) {
    net::RemoteOptions options;
    options.database = db_;
    auto session =
        net::RemoteServerEngine::Connect("127.0.0.1", server_->port(), options);
    if (!session.ok()) return session.status();
    session_ = std::move(*session);
    // Wired like DasSystem's own session (das_system.cc, Connect): pushed
    // invalidations drop stale blocks from the owner's cache, and every
    // attempt's advert is filtered through the live cache.
    session_->SetAdvertRefresher(
        [client = &das_->client()](std::vector<BlockAdvert> adverts) {
          const BlockCache* cache = client->block_cache();
          std::vector<BlockAdvert> live;
          for (const BlockAdvert& advert : adverts) {
            if (cache != nullptr &&
                cache->Get(advert.id, advert.generation) != nullptr) {
              live.push_back(advert);
            }
          }
          return live;
        });
    session_->SetInvalidationSink(
        [client = &das_->client()](const net::InvalidationEventMsg& event) {
          if (event.drop_all) {
            client->InvalidateAllCachedBlocks();
            return;
          }
          std::vector<int> ids;
          for (const BlockAdvert& advert : event.blocks) ids.push_back(advert.id);
          client->InvalidateCachedBlocks(ids);
        });
  }
  return timed_us / 1e6;
}

bool Bench::Check(size_t qi, const QueryAnswer& answer) {
  // Equal trees serialize identically, so a node-by-node match in order is
  // the byte-identity check without building the text (which costs as much
  // as a payload-heavy query); any difference falls back to comparing the
  // sorted serializations.
  const QueryAnswer& want = expected_[qi];
  if (answer.nodes.size() == want.nodes.size()) {
    size_t i = 0;
    while (i < want.nodes.size() && answer.nodes[i].EqualTree(want.nodes[i])) {
      ++i;
    }
    if (i == want.nodes.size()) return true;
  }
  return answer.SerializedSorted() == want.SerializedSorted();
}

void Bench::RefreshExpected() {
  if (!expected_stale_) return;
  const Document& doc = das_->client().original();
  for (size_t i = 0; i < queries_.size(); ++i) {
    expected_[i] = GroundTruth(doc, queries_[i].expr);
  }
  expected_stale_ = false;
}

double Bench::ReadUntraced(size_t qi, ThreadRecord* rec) {
  ++rec->attempted;
  Stopwatch watch;
  auto run = das_->Execute(queries_[qi].expr);
  const double us = watch.ElapsedMicros();
  if (!run.ok() || !Check(qi, run->answer)) {
    ++rec->failed;
    std::lock_guard<std::mutex> lock(log_mu_);
    if (logged_failures_++ < 5) {
      std::fprintf(stderr, "e2ebench: read %s %s\n",
                   queries_[qi].text.c_str(),
                   run.ok() ? "answer differs from GroundTruth"
                            : run.status().ToString().c_str());
    }
    return -1.0;
  }
  rec->rx_bytes += static_cast<double>(run->engine_stats.bytes_received);
  return us;
}

double Bench::ReadTraced(size_t qi, uint64_t request, ThreadRecord* rec) {
  ++rec->attempted;
  const Client& client = das_->client();
  const PathExpr& expr = queries_[qi].expr;
  const double offset_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  obs::Trace trace;
  obs::QueryContext ctx;
  ctx.trace = &trace;

  const int root = trace.Open("query");
  int span = trace.Open("das.translate");
  auto translated = client.Translate(expr);
  trace.Close(span);
  const int translate_id = span;

  span = trace.Open("block_cache.probe");
  const CachedBlockSet cache_set =
      translated.ok() ? client.AdvertiseCachedBlocks(&trace) : CachedBlockSet();
  trace.Close(span);
  const int probe_id = span;

  const int rpc_id = trace.Open("net.rpc");
  Result<EngineQueryResult> result = Status::Unavailable("not translated");
  if (translated.ok()) {
    ExecOptions exec;
    exec.ctx = &ctx;
    exec.cached_blocks = cache_set.adverts;
    result = session_->Execute(*translated, exec);
  }
  trace.Close(rpc_id);

  const int post_id = trace.Open("client.postprocess");
  Result<QueryAnswer> answer = Status::Unavailable("no response");
  if (result.ok()) {
    answer = client.PostProcess(expr, result->response, nullptr, &trace,
                                &cache_set);
  }
  trace.Close(post_id);
  trace.Close(root);

  if (!answer.ok() || !Check(qi, *answer)) {
    ++rec->failed;
    std::lock_guard<std::mutex> lock(log_mu_);
    if (logged_failures_++ < 5) {
      std::fprintf(stderr, "e2ebench: traced read %s %s\n",
                   queries_[qi].text.c_str(),
                   answer.ok() ? "answer differs from GroundTruth"
                               : answer.status().ToString().c_str());
    }
    return -1.0;
  }

  const std::vector<obs::SpanRecord>& spans = trace.spans();
  LayerSums& l = rec->layers;
  ++l.queries;
  l.wall_us += spans[root].elapsed_us;
  l.translate_us += spans[translate_id].elapsed_us;
  l.probe_us += spans[probe_id].elapsed_us;
  l.rpc_us += spans[rpc_id].elapsed_us;
  l.post_us += spans[post_id].elapsed_us;
  l.server_us += result->stats.server_process_us;
  l.rx_bytes += static_cast<double>(result->stats.bytes_received);
  // The remote engine records the daemon's "server" span (phases as its
  // children) and "transmit" without a parent; in the written trace they
  // hang under the harness call span whose window holds their end.
  const int calls[] = {translate_id, probe_id, rpc_id, post_id};
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    int parent = s.parent;
    if (parent < 0 && static_cast<int>(i) != root) {
      parent = root;
      const double end = s.start_us + s.elapsed_us;
      for (const int c : calls) {
        if (spans[c].start_us <= end &&
            end <= spans[c].start_us + spans[c].elapsed_us) {
          parent = c;
        }
      }
    }
    if (s.parent == post_id) {
      if (s.name == "decrypt") l.decrypt_us += s.elapsed_us;
      if (s.name == "splice") l.splice_us += s.elapsed_us;
      if (s.name == "postprocess") l.requery_us += s.elapsed_us;
    }
    if (s.parent >= 0 && spans[s.parent].name == "server") {
      l.server_phase_us[s.name] += s.elapsed_us;
    }
    rec->spans.push_back({request, s.name, offset_us + s.start_us,
                          offset_us + s.start_us + s.elapsed_us, parent});
  }

  // Replay, untimed by the wall span: the captured skeleton and blocks
  // through the same public calls PostProcess makes, one at a time.
  const ServerResponse& response = result->response;
  if (!response.skeleton_xml.empty()) {
    Stopwatch watch;
    auto skeleton = ParseXml(response.skeleton_xml);
    l.skeleton_parse_us += watch.ElapsedMicros();
    l.skeleton_bytes += static_cast<double>(response.skeleton_xml.size());
    if (!skeleton.ok()) ++rec->failed;
  }
  const CbcCipher& cipher = client.keys().block_cipher();
  for (const EncryptedBlock& block : response.blocks) {
    Stopwatch watch;
    auto plain = cipher.Decrypt(block.ciphertext);
    l.cipher_us += watch.ElapsedMicros();
    l.cipher_bytes += static_cast<double>(block.ciphertext.size());
    if (!plain.ok()) {
      ++rec->failed;
      continue;
    }
    const std::string text = FromBytes(*plain);
    watch.Restart();
    auto payload = ParseXml(text);
    l.block_parse_us += watch.ElapsedMicros();
    l.block_bytes += static_cast<double>(text.size());
    if (!payload.ok()) ++rec->failed;
  }
  return spans[root].elapsed_us;
}

obs::HistogramSnapshot Bench::UpdateHistogram() const {
  for (auto& [name, hist] : server_->SnapshotMetrics().histograms) {
    if (name == "update_us") return hist;
  }
  return obs::HistogramSnapshot();
}

uint64_t Bench::DaemonCounter(const std::string& name) const {
  for (const auto& [counter, value] : server_->SnapshotMetrics().counters) {
    if (counter == name) return value;
  }
  return 0;
}

bool Bench::Write(bool insert, Rng& rng, ThreadRecord* rec) {
  ++rec->attempted;
  const std::string& key =
      targets_.keys[rng.UniformU64(0, targets_.keys.size() - 1)];
  const int uid = next_uid_++;
  net::NetCallOptions opts;
  opts.db = db_;
  const uint64_t rx_before = server_->stats(opts).bytes_received;
  const obs::HistogramSnapshot hist_before = UpdateHistogram();

  Stopwatch watch;
  Status status;
  if (insert) {
    status = das_->InsertSubtree("/hospital", PatientFragment(uid));
  } else {
    auto updated =
        das_->UpdateValues(targets_.UpdatePath(key), targets_.NewValue(uid));
    status = !updated.ok() ? updated.status()
             : *updated == 1
                 ? Status::Ok()
                 : Status::Corruption("update bound " +
                                      std::to_string(*updated) + " leaves");
  }
  const double us = watch.ElapsedMicros();
  if (!status.ok()) {
    ++rec->failed;
    std::fprintf(stderr, "e2ebench: %s on %s failed: %s\n",
                 insert ? "insert" : "update", key.c_str(),
                 status.ToString().c_str());
    return false;
  }
  ++acked_writes_;
  expected_stale_ = true;
  const obs::HistogramSnapshot hist_after = UpdateHistogram();
  const double apply_us =
      static_cast<double>(hist_after.sum_us - hist_before.sum_us);
  writes_.apply_us += apply_us;
  writes_.owner_us += us - apply_us;
  writes_.delta_bytes +=
      static_cast<double>(server_->stats(opts).bytes_received - rx_before);
  ++writes_.writes;
  (insert ? rec->insert_us : rec->update_us).push_back(us);
  (insert ? rec->insert_end_s : rec->update_end_s).push_back(SinceLoopStart());
  return true;
}

void Bench::ClientLoop(int thread, Clock::time_point deadline,
                       ThreadRecord* rec) {
  Rng rng(args_.seed * 0x9e3779b97f4a7c15ULL + loop_number_ * 64 +
          static_cast<uint64_t>(thread) + 1);
  // Each client walks seeded random permutations of the read set, so every
  // query runs equally often and the mix does not drift with the seed.
  std::vector<int> order;
  size_t next = 0;
  uint64_t pairs = 0;
  while (Clock::now() < deadline) {
    if (spec_.write_share > 0.0 && rng.Bernoulli(spec_.write_share)) {
      if (Write(/*insert=*/rng.Bernoulli(spec_.insert_share), rng, rec)) {
        rec->op_end_s.push_back(SinceLoopStart());
      }
      continue;
    }
    RefreshExpected();
    if (next == order.size()) {
      order = rng.Permutation(static_cast<int>(queries_.size()));
      next = 0;
    }
    const size_t qi = static_cast<size_t>(order[next++]);
    if (!args_.trace) {
      const double us = ReadUntraced(qi, rec);
      if (us >= 0) {
        const double end = SinceLoopStart();
        rec->read_us.push_back(us);
        rec->read_end_s.push_back(end);
        rec->op_end_s.push_back(end);
      }
      continue;
    }
    // The traced run reads each picked query twice, traced and untraced,
    // alternating which goes first, so both p50s cover the same queries
    // in the same process and cache state.
    const bool traced_first = pairs++ % 2 == 0;
    for (int k = 0; k < 2; ++k) {
      if ((k == 0) == traced_first) {
        const double us = ReadTraced(qi, next_request_++, rec);
        if (us >= 0) rec->traced_read_us.push_back(us);
      } else {
        const double us = ReadUntraced(qi, rec);
        if (us >= 0) rec->read_us.push_back(us);
      }
    }
  }
}

ThreadRecord Bench::RunLoop(double seconds, double* wall_s) {
  std::vector<ThreadRecord> records(spec_.client_threads);
  ++loop_number_;
  loop_start_ = Clock::now();
  const Clock::time_point deadline =
      loop_start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < spec_.client_threads; ++t) {
      threads.emplace_back(&Bench::ClientLoop, this, t, deadline, &records[t]);
    }
    for (std::thread& t : threads) t.join();
  }
  *wall_s = SinceLoopStart();
  ThreadRecord merged;
  for (const ThreadRecord& r : records) MergeInto(&merged, r);
  return merged;
}

void Bench::ProbeWrites(int writes, Rng& rng, ThreadRecord* rec,
                        std::vector<double>* exposures) {
  const size_t first = rec->update_us.size();
  loop_start_ = Clock::now();
  StealSampler sampler;
  for (int i = 0; i < writes; ++i) Write(/*insert=*/false, rng, rec);
  const QuietWindows windows = sampler.Finish(loop_start_);
  for (size_t i = first; i < rec->update_us.size(); ++i) {
    const double end = rec->update_end_s[i];
    exposures->push_back(windows.Exposure(end - rec->update_us[i] / 1e6, end));
  }
}

bool Bench::RestartCheck(ThreadRecord* rec) {
  net::NetCallOptions opts;
  opts.db = db_;
  bool ok = true;
  const net::NetStats before = server_->stats(opts);
  if (before.updates_applied != static_cast<uint64_t>(acked_writes_)) {
    std::fprintf(stderr, "e2ebench: daemon applied %llu updates, owner saw "
                 "%lld acknowledged\n",
                 static_cast<unsigned long long>(before.updates_applied),
                 static_cast<long long>(acked_writes_));
    ok = false;
  }
  if (before.db_generation != das_->bundle_generation()) {
    std::fprintf(stderr, "e2ebench: daemon generation %llu != owner %llu\n",
                 static_cast<unsigned long long>(before.db_generation),
                 static_cast<unsigned long long>(das_->bundle_generation()));
    ok = false;
  }
  session_.reset();
  das_->Remote().Disconnect();
  server_.reset();
  const Status served = Serve();
  if (!served.ok()) {
    std::fprintf(stderr, "e2ebench: restart failed: %s\n",
                 served.ToString().c_str());
    return false;
  }
  const net::NetStats after = server_->stats(opts);
  if (after.db_generation != das_->bundle_generation()) {
    std::fprintf(stderr, "e2ebench: restarted daemon generation %llu != "
                 "owner %llu\n",
                 static_cast<unsigned long long>(after.db_generation),
                 static_cast<unsigned long long>(das_->bundle_generation()));
    ok = false;
  }
  RefreshExpected();
  const int64_t failed_before = rec->failed;
  for (size_t qi = 0; qi < queries_.size(); ++qi) ReadUntraced(qi, rec);
  return ok && rec->failed == failed_before;
}

int Bench::Main() {
  std::error_code ec;
  fs::create_directories(args_.work_dir, ec);

  // Set-up, repeated: the untraced run reports the median over those of
  // its five set-ups the host stole least from (QuietSubset); every
  // repetition but the last is torn down again.
  const int reps = args_.trace ? 1 : 5;
  std::vector<double> setup_s, setup_steal;
  ThreadRecord warm;
  const uint64_t hits0 =
      obs::MetricsRegistry::Global().GetCounter("cache.hit")->Value();
  const uint64_t miss0 =
      obs::MetricsRegistry::Global().GetCounter("cache.miss")->Value();
  for (int rep = 0; rep < reps; ++rep) {
    TearDown(/*remove_files=*/true);
    const CpuTimes rep_start = ReadCpuTimes();
    auto s = SetUp(rep);
    if (!s.ok()) {
      std::fprintf(stderr, "e2ebench: set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 2;
    }
    // Warm-up pass (part of set-up time, answer checks excluded): every
    // read once, which fills the plan cache and, where the working set
    // fits, the block cache.
    double warm_us = 0.0;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      const double us = args_.trace ? ReadTraced(qi, next_request_++, &warm)
                                    : ReadUntraced(qi, &warm);
      warm_us += std::max(us, 0.0);
    }
    setup_s.push_back(*s + warm_us / 1e6);
    setup_steal.push_back(StealShareBetween(rep_start, ReadCpuTimes()));
  }
  if (targets_.keys.empty()) {
    std::fprintf(stderr, "e2ebench: corpus has no unique write keys\n");
    return 2;
  }

  // Read-only workloads probe writes on the same daemon in two bursts:
  // before the warm-up loop and after the measured one, so update_p50_ms
  // samples two moments of the host half a minute apart.
  Rng probe_rng(args_.seed ^ 0x5851f42d4c957f2dULL);
  ThreadRecord before, after;
  std::vector<double> probe_exposures;
  if (spec_.probe_writes > 0) {
    ProbeWrites(spec_.probe_writes / 2, probe_rng, &before, &probe_exposures);
  }

  double loop_s = 0.0;
  const ThreadRecord warm_loop = RunLoop(kWarmupSeconds, &loop_s);
  const CpuTimes cpu_before = ReadCpuTimes();
  StealSampler loop_sampler;
  ThreadRecord all = RunLoop(args_.seconds, &loop_s);
  const QuietWindows loop_quiet = loop_sampler.Finish(loop_start_);
  const CpuTimes cpu_after = ReadCpuTimes();

  // The second probe burst; a verify pass then checks the reads against
  // the owner's new plaintext.
  if (spec_.probe_writes > 0) {
    ProbeWrites(spec_.probe_writes - spec_.probe_writes / 2, probe_rng, &after,
                &probe_exposures);
    RefreshExpected();
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      if (args_.trace) {
        ReadTraced(qi, next_request_++, &after);
      } else {
        ReadUntraced(qi, &after);
      }
    }
  }
  // Per-layer numbers cover every traced query of the run, the set-up pass
  // included: it is where a warm workload pays its plan-cache misses.
  all.layers.Add(warm.layers);
  all.layers.Add(warm_loop.layers);
  all.layers.Add(after.layers);
  all.spans.insert(all.spans.end(), warm.spans.begin(), warm.spans.end());
  all.spans.insert(all.spans.end(), warm_loop.spans.begin(),
                   warm_loop.spans.end());
  all.spans.insert(all.spans.end(), after.spans.begin(), after.spans.end());

  const uint64_t hits =
      obs::MetricsRegistry::Global().GetCounter("cache.hit")->Value() - hits0;
  const uint64_t misses =
      obs::MetricsRegistry::Global().GetCounter("cache.miss")->Value() - miss0;
  const uint64_t plan_hits = DaemonCounter("plan_cache.hit");
  const uint64_t plan_misses = DaemonCounter("plan_cache.miss");
  const double resident_mb =
      static_cast<double>(server_->catalog().ResidentBytesTotal()) /
      (1024.0 * 1024.0);

  const bool restart_ok = RestartCheck(&after);
  all.attempted +=
      warm.attempted + before.attempted + warm_loop.attempted + after.attempted;
  all.failed += warm.failed + before.failed + warm_loop.failed + after.failed;
  const bool ok = restart_ok && all.failed == 0 && all.attempted > 0;

  // --- report ---
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"cpu_features\": \"%s\", \"crypto_kernel\": \"%s\", \"nproc\": %u, "
      "\"corpus\": \"%s\", \"corpus_scale\": %d, \"corpus_nodes\": %d, "
      "\"plaintext_bytes\": %lld, \"bundle_bytes\": %lld, \"queries\": %zu, "
      "\"client_threads\": %d, \"setup_reps\": %d, "
      "\"host_steal_pct\": %s, "
      "\"rss_note\": \"client and daemon share this process\"}\n",
      spec_.name, static_cast<unsigned long long>(args_.seed),
      JsonNumber(args_.seconds).c_str(), args_.trace ? 1 : 0,
      E2EBENCH_BUILD_TYPE, __VERSION__, DescribeCpuFeatures().c_str(),
      AesKernel().name, std::thread::hardware_concurrency(),
      corpus_name_.c_str(), spec_.scale, corpus_nodes_,
      static_cast<long long>(plaintext_bytes_),
      static_cast<long long>(bundle_bytes_), queries_.size(),
      spec_.client_threads, reps,
      JsonNumber(cpu_after.total > cpu_before.total
                     ? 100.0 * (cpu_after.steal - cpu_before.steal) /
                           (cpu_after.total - cpu_before.total)
                     : 0.0)
          .c_str());
  std::printf("check %s: attempted=%lld failed=%lld error_rate=%s "
              "acked_writes=%lld restart=%s\n",
              spec_.name, static_cast<long long>(all.attempted),
              static_cast<long long>(all.failed),
              JsonNumber(all.attempted > 0 ? static_cast<double>(all.failed) /
                                                 static_cast<double>(all.attempted)
                                           : 0.0)
                  .c_str(),
              static_cast<long long>(acked_writes_),
              restart_ok ? "ok" : "FAILED");

  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const char* unit,
                 size_t n) {
    metrics.push_back({name, value, unit});
    std::printf("metric %s %s = %s %s (n=%zu)\n", spec_.name, name.c_str(),
                JsonNumber(value).c_str(), unit, n);
  };

  if (!args_.trace) {
    // Timings keep the operations the host stole least from, and the
    // rate counts the quietest windows (stats.h, QuietWindows): reads and
    // in-loop writes by the loop's windows, the two probe bursts' writes
    // pooled, each by its own burst's windows.
    const size_t n = all.read_us.size();
    const std::vector<double> reads =
        loop_quiet.QuietValues(all.read_us, all.read_end_s);
    size_t quiet_ops = 0;
    for (const double end : all.op_end_s) {
      if (loop_quiet.Quiet(end)) ++quiet_ops;
    }
    const double quiet_s = loop_quiet.QuietSeconds(loop_s);
    const double rate =
        quiet_ops > 0 && quiet_s > 0
            ? static_cast<double>(quiet_ops) / quiet_s
            : static_cast<double>(all.op_end_s.size()) / loop_s;
    std::vector<double> updates =
        loop_quiet.QuietValues(all.update_us, all.update_end_s);
    std::vector<double> probe_us = before.update_us;
    probe_us.insert(probe_us.end(), after.update_us.begin(),
                    after.update_us.end());
    const std::vector<double> probe_updates =
        QuietSubset(probe_us, probe_exposures);
    updates.insert(updates.end(), probe_updates.begin(), probe_updates.end());
    const std::vector<double> inserts =
        loop_quiet.QuietValues(all.insert_us, all.insert_end_s);
    std::printf("quiet %s: %zu of %zu loop windows (steal share <= %s), "
                "%s of %s s, %zu of %zu reads, %zu of %zu ops; %zu of %zu "
                "probe writes\n",
                spec_.name, loop_quiet.quiet_windows(), loop_quiet.windows(),
                JsonNumber(loop_quiet.threshold()).c_str(),
                JsonNumber(quiet_s).c_str(), JsonNumber(loop_s).c_str(),
                reads.size(), n, quiet_ops, all.op_end_s.size(),
                probe_updates.size(), probe_us.size());
    const std::vector<double> setups = QuietSubset(setup_s, setup_steal);
    add("setup_s", Median(setups), "s", setups.size());
    add("query_p50_ms", Quantile(reads, 0.5) / 1e3, "ms", reads.size());
    // Reported, not part of the result line: on a shared VM the p99 of a
    // few thousand reads follows the host's CPU steal more than xcrypt.
    std::printf("tail %s query_p99_ms = %s ms (n=%zu)\n", spec_.name,
                JsonNumber(Quantile(reads, 0.99) / 1e3).c_str(), reads.size());
    if (!TailSupported(reads.size(), 0.99)) {
      std::printf("note %s: fewer than %zu reads lie beyond the p99\n",
                  spec_.name, kMinTailSamples);
    }
    add("ops_per_s", rate, "1/s", quiet_ops);
    add("update_p50_ms", Quantile(updates, 0.5) / 1e3, "ms", updates.size());
    if (!inserts.empty()) {
      add("insert_p50_ms", Quantile(inserts, 0.5) / 1e3, "ms", inserts.size());
    }
    add("wire_kb_per_query",
        n > 0 ? all.rx_bytes / static_cast<double>(n) / 1024.0 : 0.0, "KiB", n);
    add("peak_rss_mb", PeakRssMb(), "MiB", 1);
    add("stored_bytes_ratio",
        static_cast<double>(bundle_bytes_) /
            static_cast<double>(std::max<int64_t>(plaintext_bytes_, 1)),
        "ratio", 1);
  } else {
    const LayerSums& l = all.layers;
    const double q = static_cast<double>(std::max<int64_t>(l.queries, 1));
    const size_t n = static_cast<size_t>(l.queries);
    auto phase = [&](const char* name) {
      const auto it = l.server_phase_us.find(name);
      return it == l.server_phase_us.end() ? 0.0 : it->second / q;
    };
    const double unspanned =
        Residual(l.post_us, {l.decrypt_us, l.splice_us, l.requery_us});
    const double unattributed =
        Residual(l.wall_us, {l.translate_us, l.probe_us, l.rpc_us, l.post_us});
    const double w = static_cast<double>(std::max<int64_t>(writes_.writes, 1));
    add("das.translate_us", l.translate_us / q, "us", n);
    add("block_cache.probe_us", l.probe_us / q, "us", n);
    add("block_cache.hit_ratio",
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0,
        "ratio", hits + misses);
    add("net.rpc_us", l.rpc_us / q, "us", n);
    add("net.transmit_us", (l.rpc_us - l.server_us) / q, "us", n);
    add("net.rx_kb", l.rx_bytes / q / 1024.0, "KiB", n);
    add("server.process_us", l.server_us / q, "us", n);
    add("server.index_lookup_us", phase("index-lookup"), "us", n);
    add("server.structural_join_us", phase("structural-join"), "us", n);
    add("server.predicate_batch_us", phase("predicate-batch"), "us", n);
    add("server.assemble_us", phase("assemble"), "us", n);
    add("plan_cache.hit_ratio",
        plan_hits + plan_misses > 0
            ? static_cast<double>(plan_hits) /
                  static_cast<double>(plan_hits + plan_misses)
            : 0.0,
        "ratio", plan_hits + plan_misses);
    add("client.postprocess_us", l.post_us / q, "us", n);
    add("client.decrypt_us", l.decrypt_us / q, "us", n);
    add("client.splice_us", l.splice_us / q, "us", n);
    add("client.requery_us", l.requery_us / q, "us", n);
    add("client.unspanned_us", unspanned / q, "us", n);
    add("xml.skeleton_parse_us", l.skeleton_parse_us / q, "us", n);
    add("xml.block_parse_us", l.block_parse_us / q, "us", n);
    const double parse_us = l.skeleton_parse_us + l.block_parse_us;
    add("xml.parse_mb_s",
        parse_us > 0 ? (l.skeleton_bytes + l.block_bytes) / parse_us : 0.0,
        "MB/s", n);
    add("crypto.cipher_us", l.cipher_us / q, "us", n);
    add("crypto.cipher_mb_s", l.cipher_us > 0 ? l.cipher_bytes / l.cipher_us : 0.0,
        "MB/s", n);
    add("catalog.apply_us", writes_.apply_us / w, "us",
        static_cast<size_t>(writes_.writes));
    add("update.delta_kb", writes_.delta_bytes / w / 1024.0, "KiB",
        static_cast<size_t>(writes_.writes));
    add("update.owner_us", writes_.owner_us / w, "us",
        static_cast<size_t>(writes_.writes));
    add("catalog.resident_mb", resident_mb, "MiB", 1);
    add("unattributed_us", unattributed / q, "us", n);
    add("trace.wall_us", l.wall_us / q, "us", n);
    const double traced_p50 = Quantile(all.traced_read_us, 0.5);
    const double untraced_p50 = Quantile(all.read_us, 0.5);
    add("trace.traced_p50_ms", traced_p50 / 1e3, "ms",
        all.traced_read_us.size());
    add("trace.untraced_p50_ms", untraced_p50 / 1e3, "ms", all.read_us.size());
    add("trace.overhead_pct",
        untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0,
        "%", all.traced_read_us.size());

    if (!args_.trace_out.empty()) {
      std::ofstream out(args_.trace_out, std::ios::trunc);
      for (const SpanOut& s : all.spans) {
        out << "{\"request\": " << s.request
            << ", \"name\": " << JsonString(s.name)
            << ", \"start_us\": " << JsonNumber(s.start_us)
            << ", \"end_us\": " << JsonNumber(s.end_us)
            << ", \"parent\": " << s.parent << "}\n";
      }
      std::printf("trace %s: %zu spans written to %s\n", spec_.name,
                  all.spans.size(), args_.trace_out.c_str());
    }
  }

  std::printf("%s\n", ResultJson(ok, all.attempted, all.failed, metrics).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace e2ebench
}  // namespace xcrypt

int main(int argc, char** argv) {
  using namespace xcrypt::e2ebench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else if (arg == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  for (const WorkloadSpec& spec : Workloads()) {
    if (args.workload == spec.name) {
      if (args.seconds <= 0) return Usage();
      Bench bench(args, spec);
      return bench.Main();
    }
  }
  std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
               args.workload.c_str());
  return Usage();
}
