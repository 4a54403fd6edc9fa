// svc-mixed: a warm svc::Daemon (workers = nproc) behind its Unix socket,
// driven closed-loop by nproc svc::Client connections from this process.
// Each client cycles a seeded list of short SNMF jobs (rank estimated, few
// iterations), MIP jobs and LEP jobs over a pool of on-disk corpora, some
// text and some io::v2. Dataset choice is Zipf-skewed and the pool holds
// more corpora than the daemon's cache cap, so warm hits and cold misses
// both happen. io parsing, rank estimation, the caches, the scheduler and
// the protocol carry the time here; NNLS and the simplex carry little.
//
// The traffic shape is an assumption, not a measurement of any client: the
// 40/45/15 SNMF/MIP/LEP job shares, the Zipf(0.5) dataset skew, the
// 23-dataset pool and the 16-entry cache cap were picked so that the job
// kinds, the corpus formats and both cache outcomes all occur. Each
// connection is a plain closed loop with one job in flight.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/attack_api.hpp"
#include "core/metrics.hpp"
#include "eq14.hpp"
#include "io/codec.hpp"
#include "scheme/mrse.hpp"
#include "scheme/plain_index.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace aspe;
namespace fs = std::filesystem;

constexpr const char* kPoolDir = "svc-pool";
constexpr const char* kSocket = "svc-pool/svc.sock";

/// One on-disk dataset of the pool and the ground truth behind it.
struct Dataset {
  core::AttackKind kind = core::AttackKind::Snmf;
  io::Format format = io::Format::Text;
  // Corpus contents; which are used depends on `kind`.
  std::vector<Vec> known_plain;  // MIP: binary records; LEP: leaked records
  std::vector<scheme::CipherPair> db;
  std::vector<scheme::CipherPair> trapdoors;
  // Ground truth.
  std::vector<BitVec> truth_indexes;    // SNMF
  std::vector<BitVec> truth_trapdoors;  // SNMF trapdoors / MIP queries
  std::vector<Vec> truth_records;       // LEP: every record
  std::vector<sse::KnownBinaryPair> known_pairs;  // MIP: Eq. (14) checks
  std::size_t outside_model = 0;  // MIP: true queries outside Eq. (14)
  // File paths (set when written).
  std::string known_path, db_path, trapdoors_path;
};

/// One distinct job: a dataset, a variant and the request built from them.
struct Job {
  std::size_t dataset = 0;
  std::size_t variant = 0;  // SNMF: seed variant; MIP: trapdoor id
  core::AttackRequest request;
  svc::JobOptions options;
  std::vector<std::uint8_t> reference;  // encoded in-process response
  std::size_t corpora = 0;              // corpus refs the job names
};

struct Pool {
  std::vector<Dataset> datasets;
  std::vector<Job> jobs;
  std::vector<std::vector<std::size_t>> client_lists;  // job ids per client
};

Dataset make_snmf(rng::Rng& rng, std::size_t d, std::size_t n,
                  std::size_t m) {
  Dataset ds;
  ds.kind = core::AttackKind::Snmf;
  scheme::SplitEncryptor enc(d, rng);
  for (std::size_t i = 0; i < n; ++i) {
    ds.truth_indexes.push_back(rng.binary_bernoulli(d, 0.3));
    ds.db.push_back(enc.encrypt_index(to_real(ds.truth_indexes.back()), rng));
  }
  for (std::size_t j = 0; j < m; ++j) {
    ds.truth_trapdoors.push_back(rng.binary_with_k_ones(d, 3));
    ds.trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(ds.truth_trapdoors.back()), rng));
  }
  return ds;
}

Dataset make_mip(rng::Rng& rng, std::size_t d, std::size_t m,
                 std::size_t queries) {
  Dataset ds;
  ds.kind = core::AttackKind::Mip;
  scheme::MrseOptions opt;
  opt.vocab_dim = d;
  const scheme::Mrse mrse(opt, rng);
  std::vector<BitVec> records;
  for (std::size_t i = 0; i < m; ++i) {
    records.push_back(rng.binary_bernoulli(d, 0.25));
    ds.known_plain.push_back(to_real(records.back()));
    ds.db.push_back(mrse.encrypt_record(records.back(), rng));
    ds.known_pairs.push_back({records.back(), ds.db.back()});
  }
  for (std::size_t j = 0; j < queries; ++j) {
    ds.truth_trapdoors.push_back(rng.binary_with_k_ones(d, 4));
    ds.trapdoors.push_back(mrse.encrypt_query(ds.truth_trapdoors.back(), rng));
    if (!query_in_model(records, ds.db, ds.trapdoors.back(),
                        ds.truth_trapdoors.back(), opt.mu, opt.sigma)) {
      ++ds.outside_model;
    }
  }
  return ds;
}

Dataset make_lep(rng::Rng& rng, std::size_t d, std::size_t n,
                 std::size_t m) {
  Dataset ds;
  ds.kind = core::AttackKind::Lep;
  const scheme::SplitEncryptor enc(d + 1, rng);
  for (std::size_t i = 0; i < n; ++i) {
    ds.truth_records.push_back(rng.uniform_vec(d, -1.0, 1.0));
    ds.db.push_back(
        enc.encrypt_index(scheme::make_index(ds.truth_records.back()), rng));
  }
  ds.known_plain.assign(ds.truth_records.begin(),
                        ds.truth_records.begin() + 2 * (d + 1));
  for (std::size_t j = 0; j < m; ++j) {
    const Vec q = rng.uniform_vec(d, -1.0, 1.0);
    ds.trapdoors.push_back(
        enc.encrypt_trapdoor(scheme::make_trapdoor(q, rng.uniform(0.5, 2.0)),
                             rng));
  }
  return ds;
}

/// The pool's datasets. Formats alternate text / io::v2 within each kind.
std::vector<Dataset> make_datasets(std::uint64_t seed, bool reduced) {
  rng::Rng root(seed ^ 0x5eedc0deULL);
  std::vector<Dataset> out;
  const std::size_t snmf_sets = reduced ? 2 : 8;
  const std::size_t mip_sets = reduced ? 2 : 12;
  const std::size_t lep_sets = reduced ? 1 : 3;
  for (std::size_t s = 0; s < snmf_sets; ++s) {
    rng::Rng rng = root.child(out.size());
    out.push_back(make_snmf(rng, 10, reduced ? 60 : 300, reduced ? 20 : 60));
    out.back().format = s % 2 == 0 ? io::Format::Text : io::Format::Binary;
  }
  for (std::size_t s = 0; s < mip_sets; ++s) {
    rng::Rng rng = root.child(out.size());
    out.push_back(make_mip(rng, 24, 60, reduced ? 2 : 4));
    out.back().format = s % 2 == 0 ? io::Format::Binary : io::Format::Text;
  }
  for (std::size_t s = 0; s < lep_sets; ++s) {
    rng::Rng rng = root.child(out.size());
    out.push_back(make_lep(rng, 6, 60, 20));
    out.back().format = s % 2 == 0 ? io::Format::Text : io::Format::Binary;
  }
  return out;
}

void write_vecs(const std::string& path, io::Format f,
                const std::vector<Vec>& rows) {
  auto w = io::open_writer(path, f);
  for (const auto& v : rows) w->write_vec(v);
  w->finish();
}

void write_ciphers(const std::string& path, io::Format f,
                   const std::vector<scheme::CipherPair>& db) {
  auto w = io::open_writer(path, f);
  w->write_cipher_database(db);
  w->finish();
}

void write_pool(std::vector<Dataset>& datasets) {
  fs::create_directories(kPoolDir);
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    Dataset& ds = datasets[i];
    const std::string stem = std::string(kPoolDir) + "/ds" + std::to_string(i);
    const char* ext = ds.format == io::Format::Text ? ".txt" : ".bin";
    ds.db_path = stem + "-db" + ext;
    ds.trapdoors_path = stem + "-td" + ext;
    write_ciphers(ds.db_path, ds.format, ds.db);
    write_ciphers(ds.trapdoors_path, ds.format, ds.trapdoors);
    if (!ds.known_plain.empty()) {
      ds.known_path = stem + "-known" + ext;
      write_vecs(ds.known_path, ds.format, ds.known_plain);
    }
  }
}

Job make_job(const std::vector<Dataset>& datasets, std::size_t dataset,
             std::size_t variant) {
  const Dataset& ds = datasets[dataset];
  Job job;
  job.dataset = dataset;
  job.variant = variant;
  job.options.threads = 1;  // concurrency comes from the daemon's workers
  job.options.seed = 2017 + variant;
  const auto db = core::CorpusRef::from_path(ds.db_path);
  const auto td = core::CorpusRef::from_path(ds.trapdoors_path);
  switch (ds.kind) {
    case core::AttackKind::Snmf: {
      core::SnmfRequest req;
      req.db = db;
      req.trapdoors = td;
      req.options.rank = 0;  // estimated from rank(R)
      req.options.restarts = 2;
      req.options.nmf.max_iterations = 10;
      job.request.request = req;
      job.corpora = 2;
      break;
    }
    case core::AttackKind::Mip: {
      core::MipRequest req;
      req.known_plain = core::CorpusRef::from_path(ds.known_path);
      req.db = db;
      req.trapdoors = td;
      req.trapdoor_id = variant;
      job.request.request = req;
      job.options.seed = 2017;
      job.corpora = 3;
      break;
    }
    case core::AttackKind::Lep: {
      core::LepRequest req;
      req.known_plain = core::CorpusRef::from_path(ds.known_path);
      req.db = db;
      req.trapdoors = td;
      job.request.request = req;
      job.options.seed = 2017;
      job.corpora = 3;
      break;
    }
  }
  return job;
}

/// Seeded per-client job lists. Every list holds the same share of each
/// kind (40% SNMF, 45% MIP, 15% LEP) in seeded order, so the mix does not
/// drift with the seed; the dataset within a kind follows a Zipf(0.5) law
/// (popular corpora stay warm, rare ones miss).
void make_job_lists(Pool& pool, std::uint64_t seed, std::size_t clients,
                    std::size_t per_client) {
  std::map<core::AttackKind, std::vector<std::size_t>> by_kind;
  for (std::size_t i = 0; i < pool.datasets.size(); ++i) {
    by_kind[pool.datasets[i].kind].push_back(i);
  }
  const std::size_t snmf = per_client * 40 / 100;
  const std::size_t lep = per_client * 15 / 100;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> job_id;
  rng::Rng rng(seed ^ 0xc11e47ULL);
  for (std::size_t c = 0; c < clients; ++c) {
    std::vector<core::AttackKind> kinds(per_client, core::AttackKind::Mip);
    std::fill_n(kinds.begin(), snmf, core::AttackKind::Snmf);
    std::fill_n(kinds.begin() + snmf, lep, core::AttackKind::Lep);
    rng.shuffle(kinds);
    std::vector<std::size_t> list;
    for (const core::AttackKind kind : kinds) {
      const auto& sets = by_kind[kind];
      std::vector<double> zipf(sets.size());
      for (std::size_t r = 0; r < sets.size(); ++r) {
        zipf[r] = 1.0 / std::sqrt(r + 1.0);
      }
      const std::size_t dataset = sets[rng.discrete(zipf)];
      const Dataset& ds = pool.datasets[dataset];
      std::size_t variant = 0;
      if (kind == core::AttackKind::Snmf) variant = rng.discrete({1.0, 1.0});
      if (kind == core::AttackKind::Mip) {
        variant = rng.discrete(std::vector<double>(ds.trapdoors.size(), 1.0));
      }
      const auto key = std::make_pair(dataset, variant);
      auto it = job_id.find(key);
      if (it == job_id.end()) {
        it = job_id.emplace(key, pool.jobs.size()).first;
        pool.jobs.push_back(make_job(pool.datasets, dataset, variant));
      }
      list.push_back(it->second);
    }
    pool.client_lists.push_back(std::move(list));
  }
}

/// Encoded response with every telemetry block cleared: the bytes the
/// determinism contract pins (wall times and span tables may differ).
std::vector<std::uint8_t> canonical_bytes(core::AttackResponse resp) {
  resp.telemetry = {};
  std::visit(
      [](auto& r) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(r)>,
                                      std::monostate>) {
          r.telemetry = {};
        }
      },
      resp.result);
  svc::WireWriter w;
  svc::encode_response(w, resp);
  return w.bytes();
}

const char* kind_name(core::AttackKind kind) {
  switch (kind) {
    case core::AttackKind::Lep:
      return "lep";
    case core::AttackKind::Mip:
      return "mip";
    case core::AttackKind::Snmf:
      return "snmf";
  }
  return "?";
}

bool failed(const core::AttackResponse& resp) {
  return resp.status != core::AttackStatus::Ok;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One closed-loop phase: every client cycles its list, one job in flight,
/// until `seconds` have passed (and at least once through). Each response
/// is checked against its job's reference right after its latency is
/// taken; the clients' CPU spent on the checks is left out of the phase's
/// CPU.
struct PhaseResult {
  Samples latency;
  std::map<core::AttackKind, Samples> latency_by_kind;
  double elapsed = 0.0;
  double cpu_s = 0.0;  // process CPU over the phase: daemon and clients
  double steal_frac = 0.0;
  std::size_t completed = 0;
  std::size_t errors = 0;      // AttackStatus::Failed, Budget refusals too
  std::size_t unanswered = 0;  // AttackStatus::NoSolution
  std::size_t mismatches = 0;  // responses differing from the reference
  std::size_t corpora_referenced = 0;
  std::size_t queue_depth_max = 0;
  std::size_t client_errors = 0;
  double check_cpu_s = 0.0;
};

PhaseResult run_phase(const Pool& pool, double seconds, bool sample_stats,
                      bool corrupt) {
  const std::size_t clients = pool.client_lists.size();
  std::vector<PhaseResult> per(clients);
  const double cpu0 = process_cpu_seconds();
  const StealMeter steal;
  Stopwatch phase;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& r = per[c];
      try {
        svc::Client client(kSocket);
        const auto& list = pool.client_lists[c];
        for (std::size_t next = 0;
             next < list.size() || phase.seconds() < seconds; ++next) {
          const Job& job = pool.jobs[list[next % list.size()]];
          Stopwatch watch;
          core::AttackResponse resp =
              client.wait(client.submit(job.request, job.options));
          r.latency.add(watch.seconds());
          r.latency_by_kind[pool.datasets[job.dataset].kind].add(
              r.latency.values().back());
          r.corpora_referenced += job.corpora;
          ++r.completed;

          const double check0 = thread_cpu_seconds();
          if (resp.status == core::AttackStatus::Failed) ++r.errors;
          if (resp.status == core::AttackStatus::NoSolution) ++r.unanswered;
          auto bytes = canonical_bytes(std::move(resp));
          if (corrupt && r.completed == 1 && !bytes.empty()) {
            bytes.back() ^= 0x01;
          }
          if (bytes != job.reference) ++r.mismatches;
          r.check_cpu_s += thread_cpu_seconds() - check0;

          if (sample_stats && c == 0) {
            if (const auto st = client.ping_stats()) {
              r.queue_depth_max = std::max(r.queue_depth_max, st->queue_depth);
            }
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "svc client %zu: %s\n", c, e.what());
        ++r.client_errors;
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult out;
  out.elapsed = phase.seconds();
  out.steal_frac = steal.frac();
  const double cpu_s = process_cpu_seconds() - cpu0;
  for (const auto& r : per) {
    out.latency.append(r.latency);
    for (const auto& [kind, samples] : r.latency_by_kind) {
      out.latency_by_kind[kind].append(samples);
    }
    out.completed += r.completed;
    out.errors += r.errors;
    out.unanswered += r.unanswered;
    out.mismatches += r.mismatches;
    out.corpora_referenced += r.corpora_referenced;
    out.queue_depth_max = std::max(out.queue_depth_max, r.queue_depth_max);
    out.client_errors += r.client_errors;
    out.check_cpu_s += r.check_cpu_s;
  }
  out.cpu_s = cpu_s - out.check_cpu_s;
  return out;
}

/// A served daemon: the Daemon plus its socket front end.
struct Service {
  std::unique_ptr<svc::Daemon> daemon;
  std::unique_ptr<svc::Server> server;

  void start() {
    svc::DaemonOptions dopt;
    dopt.workers = nproc();
    // Fewer cache entries than the pool has corpora, so the corpus and rank
    // caches keep cycling between warm hits and cold misses.
    dopt.max_cache_entries = 16;
    daemon = std::make_unique<svc::Daemon>(dopt);
    svc::ServerOptions sopt;
    sopt.socket_path = kSocket;
    server = std::make_unique<svc::Server>(*daemon, sopt);
  }
  void stop() {
    if (server) server->stop();
    if (daemon) daemon->stop();
    server.reset();
    daemon.reset();
  }
};

/// Score one distinct job from its reference response: per-attack P/R of
/// the recovered MIP query or SNMF trapdoors (and SNMF indexes). Returns
/// false when an LEP result strays more than 1e-6 from the true records or
/// a MIP answer violates Eq. (14).
bool score_job(const Dataset& ds, const Job& job,
               const core::AttackResponse& resp, PrAccumulator& pr,
               PrAccumulator& data_pr) {
  if (ds.kind == core::AttackKind::Lep) {
    if (failed(resp)) return true;  // counted as a failure, not a mismatch
    const auto& res = resp.lep();
    if (res.records.size() != ds.truth_records.size()) return false;
    for (std::size_t i = 0; i < res.records.size(); ++i) {
      if (res.records[i].size() != ds.truth_records[i].size()) return false;
      for (std::size_t k = 0; k < res.records[i].size(); ++k) {
        if (std::abs(res.records[i][k] - ds.truth_records[i][k]) > 1e-6) {
          return false;
        }
      }
    }
    return true;
  }
  if (failed(resp)) {
    pr.add_failure();
    if (ds.kind == core::AttackKind::Snmf) data_pr.add_failure();
    return true;
  }
  if (ds.kind == core::AttackKind::Mip) {
    const auto& res = resp.mip();
    pr.add(ds.truth_trapdoors[job.variant], res.query);
    return satisfies_eq14(ds.known_pairs, ds.trapdoors[job.variant],
                          res.query, res.rhat, res.that, 1.0, 0.5);
  }
  const auto& res = resp.snmf();
  PrAccumulator td, idx;
  if (res.indexes.empty() ||
      res.indexes.front().size() != ds.truth_indexes.front().size()) {
    td.add_failure();  // estimated rank missed d: nothing aligns
    idx.add_failure();
  } else {
    const auto perm = core::align_latent_dimensions(
        ds.truth_indexes, ds.truth_trapdoors, res.indexes, res.trapdoors);
    for (std::size_t j = 0; j < ds.truth_trapdoors.size(); ++j) {
      td.add(ds.truth_trapdoors[j],
             core::apply_permutation(res.trapdoors[j], perm));
    }
    for (std::size_t j = 0; j < ds.truth_indexes.size(); ++j) {
      idx.add(ds.truth_indexes[j],
              core::apply_permutation(res.indexes[j], perm));
    }
  }
  pr.add_scores(td.precision(), td.recall());
  data_pr.add_scores(idx.precision(), idx.recall());
  return true;
}

/// Report a phase's checks and attempts; returns its jobs that did not end
/// with an answer. Only errors count as failed operations; a MIP job that
/// ran to completion without an answer counts against solved_frac.
std::size_t check_phase(const PhaseResult& phase, Report& report,
                        const char* name) {
  report.check(phase.mismatches == 0,
               std::string(name) + ": " + std::to_string(phase.mismatches) +
                   " svc responses differ from in-process dispatch_attack");
  report.check(phase.client_errors == 0,
               std::string(name) + ": " +
                   std::to_string(phase.client_errors) + " client errors");
  report.attempts(phase.completed + phase.client_errors,
                  phase.errors + phase.client_errors);
  return phase.errors + phase.unanswered + phase.client_errors;
}

double cpu_per_job(const PhaseResult& phase) {
  return phase.completed == 0 ? 0.0 : phase.cpu_s / phase.completed;
}

std::optional<svc::DaemonStats> daemon_stats() {
  svc::Client client(kSocket);
  return client.ping_stats();
}

}  // namespace

void run_svc_mixed(const Args& args, Report& report) {
  const std::size_t clients = nproc();
  const bool corrupt = args.corrupt == "svc-response-byte";
  Pool pool;
  Service service;
  double gen_s = 0.0, write_s = 0.0;
  const SetupTiming setup = timed_setup([&] {
    Stopwatch watch;
    pool = Pool{};
    pool.datasets = make_datasets(args.seed, args.reduced);
    gen_s = watch.seconds();
    watch.reset();
    write_pool(pool.datasets);
    write_s = watch.seconds();
    service.start();
  }, [&] {
    // Every repetition creates the pool files afresh.
    service.stop();
    fs::remove_all(kPoolDir);
  });
  make_job_lists(pool, args.seed, clients, args.reduced ? 8 : 120);

  // In-process references and their scores, outside every timed phase.
  std::vector<PrAccumulator> job_pr(pool.jobs.size()),
      job_data_pr(pool.jobs.size());
  std::vector<double> dispatch_s(4, 0.0), dispatch_n(4, 0.0);
  std::size_t wrong = 0;
  for (std::size_t j = 0; j < pool.jobs.size(); ++j) {
    Job& job = pool.jobs[j];
    const Dataset& ds = pool.datasets[job.dataset];
    core::ExecContext ctx;
    ctx.threads = job.options.threads;
    ctx.seed = job.options.seed;
    Stopwatch watch;
    const core::AttackResponse resp = core::dispatch_attack(job.request, ctx);
    dispatch_s[static_cast<std::size_t>(ds.kind)] += watch.seconds();
    dispatch_n[static_cast<std::size_t>(ds.kind)] += 1.0;
    job.reference = canonical_bytes(resp);
    if (!score_job(ds, job, resp, job_pr[j], job_data_pr[j])) ++wrong;
  }
  report.check(wrong == 0,
               std::to_string(wrong) +
                   " jobs wrong: an LEP record more than 1e-6 from the truth "
                   "or a MIP answer outside Eq. (14)");
  // P/R: mean over every attack in the client lists (LEP has none).
  PrAccumulator pr, data_pr;
  for (const auto& list : pool.client_lists) {
    for (std::size_t j : list) {
      const auto kind = pool.datasets[pool.jobs[j].dataset].kind;
      if (kind == core::AttackKind::Lep) continue;
      pr.add_scores(job_pr[j].precision(), job_pr[j].recall());
      if (kind == core::AttackKind::Snmf) {
        data_pr.add_scores(job_data_pr[j].precision(),
                           job_data_pr[j].recall());
      }
    }
  }
  std::size_t outside = 0;
  for (const Dataset& ds : pool.datasets) outside += ds.outside_model;
  report.info("pool: " + std::to_string(pool.datasets.size()) +
              " datasets, " + std::to_string(pool.jobs.size()) +
              " distinct jobs, " + std::to_string(clients) +
              " closed-loop clients x " +
              std::to_string(pool.client_lists.front().size()) + " jobs; " +
              std::to_string(outside) +
              " MIP queries of the pool outside the Eq. (14) model");
  report.info("data_precision " + std::to_string(data_pr.precision()) +
              " data_recall " + std::to_string(data_pr.recall()) + " (n=" +
              std::to_string(data_pr.count()) + " SNMF jobs)");

  MetricValues values;
  if (!args.trace) {
    const PhaseResult phase = run_phase(pool, args.seconds, false, corrupt);
    const std::size_t unsolved = check_phase(phase, report, "measured phase");
    const std::size_t attempted = phase.completed + phase.client_errors;
    report.info("jobs: " + std::to_string(attempted) + " attempted, " +
                std::to_string(unsolved) + " without an answer (failed_frac " +
                std::to_string(static_cast<double>(unsolved) /
                               std::max<std::size_t>(attempted, 1)) +
                ")");
    service.stop();
    fs::remove_all(kPoolDir);
    report.info("wall latency p50 " +
                std::to_string(phase.latency.quantile(0.5)) + " s, p90 " +
                std::to_string(phase.latency.quantile(0.9)) + " s, " +
                std::to_string(phase.completed / phase.elapsed) +
                " jobs/s over " + std::to_string(phase.elapsed) + " s");
    std::string by_kind;
    for (const auto& [kind, samples] : phase.latency_by_kind) {
      by_kind += std::string(by_kind.empty() ? "" : ", ") +
                 kind_name(kind) + " " +
                 std::to_string(samples.quantile(0.5)) + " s (n=" +
                 std::to_string(samples.size()) + ")";
    }
    report.info("wall latency p50 by job kind: " + by_kind);
    report.info("host steal over the timed phase: " +
                std::to_string(100.0 * phase.steal_frac) + "% of CPU time");
    values.set("setup_s", setup.median_s, setup.reps);
    values.set("cpu_s_per_attack", cpu_per_job(phase), phase.completed);
    values.set("precision", pr.precision(), pr.count());
    values.set("recall", pr.recall(), pr.count());
    values.set("solved_frac",
               1.0 - static_cast<double>(unsolved) /
                         std::max<std::size_t>(attempted, 1),
               attempted);
    report.metrics(values);
    return;
  }

  // Traced run. The daemon gets no sink and no job asks for telemetry (a
  // sink turns off SNMF coalescing, and overlapping jobs would share one
  // recording), so the layer split comes from client-side timings, from
  // DaemonStats, and from timing the public io/core calls per pool corpus.
  Samples ping;
  {
    svc::Client client(kSocket);
    for (int i = 0; i < 200; ++i) {
      Stopwatch watch;
      client.ping();
      ping.add(watch.seconds());
    }
  }
  const PhaseResult untraced =
      run_phase(pool, args.seconds / 2, false, corrupt);
  check_phase(untraced, report, "untraced phase");
  const auto before = daemon_stats();
  const PhaseResult traced = run_phase(pool, args.seconds / 2, true, false);
  check_phase(traced, report, "traced phase");
  const auto after = daemon_stats();
  service.stop();
  report.check(before.has_value() && after.has_value(),
               "daemon stats available through ping_stats");

  double parse_s[2] = {0.0, 0.0};
  double parse_n[2] = {0.0, 0.0};
  double score_s = 0.0, rank_s = 0.0, snmf_sets = 0.0;
  for (const Dataset& ds : pool.datasets) {
    const int f = ds.format == io::Format::Text ? 0 : 1;
    for (const std::string* path : {&ds.db_path, &ds.trapdoors_path}) {
      Stopwatch watch;
      (void)io::open_reader(*path)->read_cipher_database();
      parse_s[f] += watch.seconds();
      parse_n[f] += 1.0;
    }
    if (!ds.known_path.empty()) {
      Stopwatch watch;
      (void)io::open_reader(ds.known_path)->read_vecs();
      parse_s[f] += watch.seconds();
      parse_n[f] += 1.0;
    }
    if (ds.kind != core::AttackKind::Snmf) continue;
    Stopwatch watch;
    const linalg::Matrix scores = core::build_score_matrix(ds.db, ds.trapdoors, 1);
    score_s += watch.seconds();
    watch.reset();
    (void)core::estimate_latent_dimension(scores, 1e-8, core::ExecContext{});
    rank_s += watch.seconds();
    snmf_sets += 1.0;
  }
  fs::remove_all(kPoolDir);

  const auto delta = [&](auto field) -> double {
    if (!before || !after) return 0.0;
    return static_cast<double>((*after).*field) -
           static_cast<double>((*before).*field);
  };
  const auto mean = [](double sum, double n) { return n > 0 ? sum / n : 0.0; };
  const auto kind = [](core::AttackKind k) { return static_cast<std::size_t>(k); };
  values.set("host.steal_frac", untraced.steal_frac);
  values.set("wall.attack_s_p90", untraced.latency.quantile(0.9),
             untraced.latency.size());
  values.set("wall.attack_s_p50", untraced.latency.quantile(0.5),
             untraced.latency.size());
  values.set("wall.attacks_per_s", untraced.completed / untraced.elapsed,
             untraced.completed);
  values.set("setup.corpus_gen_s", gen_s);
  values.set("io.corpus_write_s", write_s);
  values.set("io.parse_s_per_corpus.text", mean(parse_s[0], parse_n[0]),
             static_cast<std::size_t>(parse_n[0]));
  values.set("io.parse_s_per_corpus.v2", mean(parse_s[1], parse_n[1]),
             static_cast<std::size_t>(parse_n[1]));
  values.set("mip.attack_s",
             mean(dispatch_s[kind(core::AttackKind::Mip)],
                  dispatch_n[kind(core::AttackKind::Mip)]));
  values.set("snmf.attack_s",
             mean(dispatch_s[kind(core::AttackKind::Snmf)],
                  dispatch_n[kind(core::AttackKind::Snmf)]));
  values.set("lep.attack_s",
             mean(dispatch_s[kind(core::AttackKind::Lep)],
                  dispatch_n[kind(core::AttackKind::Lep)]));
  values.set("snmf.score_matrix_s", mean(score_s, snmf_sets));
  values.set("snmf.rank_estimate_s", mean(rank_s, snmf_sets));
  values.set("nmf.data_precision", data_pr.precision(), data_pr.count());
  values.set("nmf.data_recall", data_pr.recall(), data_pr.count());
  values.set("svc.ping_rtt_s", ping.quantile(0.5), ping.size());
  values.set("svc.corpus_cache_hit_ratio",
             mean(delta(&svc::DaemonStats::corpus_cache_hits),
                  static_cast<double>(traced.corpora_referenced)));
  const double score_hits = delta(&svc::DaemonStats::score_cache_hits);
  values.set("svc.score_cache_hit_ratio",
             mean(score_hits,
                  score_hits + delta(&svc::DaemonStats::score_cache_misses)));
  values.set("svc.rank_cache_hits", delta(&svc::DaemonStats::rank_cache_hits));
  values.set("svc.basis_cache_hits",
             delta(&svc::DaemonStats::basis_cache_hits));
  values.set("svc.lep_session_hits",
             delta(&svc::DaemonStats::lep_session_hits));
  values.set("svc.batched_jobs", delta(&svc::DaemonStats::batched_jobs));
  values.set("svc.affinity_hits", delta(&svc::DaemonStats::affinity_hits));
  values.set("svc.queue_depth_max",
             static_cast<double>(traced.queue_depth_max));
  values.set("svc.rejected", delta(&svc::DaemonStats::rejected) +
                                 delta(&svc::DaemonStats::expired));
  values.set("obs.overhead_frac",
             (cpu_per_job(traced) - cpu_per_job(untraced)) /
                 cpu_per_job(untraced));
  report.metrics(values);
}

}  // namespace perfbench
