// aspe::svc daemon throughput: jobs/sec through a warm daemon over its Unix
// socket at 1 / 8 / 64 concurrent clients, against the one-shot CLI baseline
// (every job re-parses its corpus and re-estimates the SNMF rank from
// scratch). The daemon amortizes exactly that per-job setup through its
// corpus and rank caches, so the same attack against the same files answers
// faster — and bit-identically, which the bench verifies per run.
//
// A batched-scheduling series rides along: an 8-job SNMF batch sharing one
// corpus coalesced into a single fused restart sweep (one corpus parse, one
// score-matrix build, one rank estimate).
//
// Writes BENCH_svc.json (gated by tools/check_bench.py against
// bench/baselines/). Headlines: svc_daemon_speedup_over_oneshot_c{1,8,64},
// svc_batched_snmf_speedup_over_solo_8job, daemon_outputs_bit_identical,
// batched_outputs_bit_identical.
//
// Usage: bench_svc [--full] [--seed=S]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cli/commands.hpp"
#include "common/stopwatch.hpp"
#include "core/attack_api.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"

using namespace aspe;

namespace {

namespace fs = std::filesystem;

struct RunRecord {
  std::string mode;  // "oneshot" or "daemon"
  std::size_t clients = 0;
  std::size_t jobs = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
};

/// Run one aspe_cli command in-process; abort the bench on failure (a bench
/// over failing jobs measures nothing).
void run_cli(std::initializer_list<std::string> args) {
  std::ostringstream out, err;
  const int code = cli::run_command(std::vector<std::string>(args), out, err);
  if (code != 0) {
    std::fprintf(stderr, "bench_svc: cli command failed (%d): %s\n", code,
                 err.str().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const bool full = flags.get_bool("full", false);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));

  bench::print_banner(
      "svc daemon throughput: warm job service vs one-shot CLI",
      "jobs/sec at 1/8/64 concurrent clients (docs/svc.md)");

  // One SNMF job over a text corpus big enough that the per-job setup the
  // daemon caches — text parse + rank(R) estimation — is a real fraction of
  // the job, as it is for real corpora.
  const std::size_t d = 12;
  const std::size_t n = full ? 8000 : 1000;
  // Enough trapdoors that the per-job rank(R) estimate (cost ~ n*m^2) is
  // the dominant setup — the part the daemon's rank cache and the fused
  // batch pay once instead of per job.
  const std::size_t m = 200;

  const fs::path dir = fs::temp_directory_path() /
                       ("aspe_bench_svc_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string key = (dir / "key.txt").string();
  const std::string plain = (dir / "plain.txt").string();
  const std::string queries = (dir / "q.txt").string();
  const std::string db = (dir / "db.txt").string();
  const std::string td = (dir / "td.txt").string();
  const std::string sock = (dir / "svc.sock").string();

  run_cli({"keygen", "--dim=" + std::to_string(d), "--key=" + key,
           "--seed=" + std::to_string(seed)});
  run_cli({"gen-data", "--d=" + std::to_string(d),
           "--count=" + std::to_string(n), "--rho=0.25", "--out=" + plain,
           "--seed=" + std::to_string(seed + 1)});
  run_cli({"gen-data", "--d=" + std::to_string(d),
           "--count=" + std::to_string(m), "--rho=0.25", "--out=" + queries,
           "--seed=" + std::to_string(seed + 2)});
  run_cli({"encrypt", "--key=" + key, "--plain=" + plain, "--out=" + db});
  run_cli({"trapdoor", "--key=" + key, "--plain=" + queries, "--out=" + td});

  const auto job_request = [&] {
    core::AttackRequest req;
    core::SnmfRequest snmf;
    snmf.db = core::CorpusRef::from_path(db);
    snmf.trapdoors = core::CorpusRef::from_path(td);
    snmf.options.rank = 0;  // estimated per job: the cacheable expensive part
    snmf.options.restarts = 1;
    // Few enough sweep iterations that the per-job setup (parse + score
    // build + rank estimate) dominates, as it does for short interactive
    // jobs — the regime the warm daemon and the fused batch are for.
    snmf.options.nmf.max_iterations = 5;
    req.request = snmf;
    return req;
  };
  svc::JobOptions jopts;
  jopts.threads = 1;
  jopts.seed = seed;

  std::vector<RunRecord> records;

  // ---- one-shot baseline: the pre-daemon workflow, one dispatch per job,
  // every job paying corpus parse + rank estimation again.
  const std::size_t baseline_jobs = full ? 12 : 6;
  double baseline_jps = 0.0;
  {
    double best = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      Stopwatch watch;
      for (std::size_t j = 0; j < baseline_jobs; ++j) {
        core::ExecContext ctx;
        ctx.seed = seed;
        const core::AttackResponse resp =
            core::dispatch_attack(job_request(), ctx);
        if (!resp.ok()) {
          std::fprintf(stderr, "bench_svc: baseline job failed: %s\n",
                       resp.message.c_str());
          return 1;
        }
      }
      best = std::min(best, watch.seconds());
    }
    baseline_jps = baseline_jobs / best;
    records.push_back({"oneshot", 1, baseline_jobs, best, baseline_jps});
  }
  std::printf("one-shot baseline: %.1f jobs/sec\n\n", baseline_jps);

  // ---- warm daemon over the socket at increasing client counts ----------
  svc::DaemonOptions dopt;
  dopt.workers =
      std::min<std::size_t>(8, std::max(1u, std::thread::hardware_concurrency()));
  svc::Daemon daemon(dopt);
  svc::ServerOptions sopt;
  sopt.socket_path = sock;
  svc::Server server(daemon, sopt);

  // First, bit-identity: the daemon's answer for this job must equal the
  // one-shot dispatch answer exactly.
  bool bit_identical = false;
  {
    core::ExecContext ctx;
    ctx.seed = seed;
    const core::AttackResponse oneshot =
        core::dispatch_attack(job_request(), ctx);
    svc::Client client(sock);
    const core::AttackResponse served = client.run(job_request(), jopts);
    bit_identical = served.ok() && oneshot.ok() &&
                    served.snmf().indexes == oneshot.snmf().indexes &&
                    served.snmf().trapdoors == oneshot.snmf().trapdoors &&
                    served.snmf().best_fit_error ==
                        oneshot.snmf().best_fit_error;
  }
  std::printf("daemon output bit-identical to one-shot: %s\n\n",
              bit_identical ? "yes" : "NO");

  bench::TablePrinter table(
      {"clients", "jobs", "seconds", "jobs/sec", "speedup"});
  table.print_header();

  double speedup_c1 = 0.0, speedup_c8 = 0.0, speedup_c64 = 0.0;
  for (const std::size_t clients : {std::size_t{1}, std::size_t{8},
                                    std::size_t{64}}) {
    const std::size_t jobs_total = std::max<std::size_t>(clients, full ? 64 : 16);
    // Best of two repetitions: on a small machine, spinning up `clients`
    // threads is scheduler-noise of the same order as the jobs themselves.
    double s = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<std::thread> threads;
      threads.reserve(clients);
      std::atomic<std::size_t> failures{0};
      Stopwatch watch;
      for (std::size_t c = 0; c < clients; ++c) {
        const std::size_t share =
            jobs_total / clients + (c < jobs_total % clients ? 1 : 0);
        threads.emplace_back([&, share] {
          try {
            svc::Client client(sock);
            for (std::size_t j = 0; j < share; ++j) {
              const core::AttackResponse resp =
                  client.run(job_request(), jopts);
              if (!resp.ok()) ++failures;
            }
          } catch (const std::exception&) {
            ++failures;
          }
        });
      }
      for (auto& t : threads) t.join();
      s = std::min(s, watch.seconds());
      if (failures > 0) {
        std::fprintf(stderr, "bench_svc: %zu daemon jobs failed\n",
                     failures.load());
        return 1;
      }
    }
    const double jps = jobs_total / s;
    const double speedup = baseline_jps > 0.0 ? jps / baseline_jps : 0.0;
    if (clients == 1) speedup_c1 = speedup;
    if (clients == 8) speedup_c8 = speedup;
    if (clients == 64) speedup_c64 = speedup;
    records.push_back({"daemon", clients, jobs_total, s, jps});
    table.print_row({std::to_string(clients), std::to_string(jobs_total),
                     bench::fmt_sci(s), bench::fmt(jps, 1),
                     bench::fmt(speedup, 1) + "x"});
  }

  server.stop();
  daemon.stop();
  const svc::DaemonStats st = daemon.stats();
  std::printf("\ndaemon cache hits: %llu corpus, %llu rank\n",
              static_cast<unsigned long long>(st.corpus_cache_hits),
              static_cast<unsigned long long>(st.rank_cache_hits));

  // ---- batched SNMF: 8 jobs sharing one corpus, one SubmitBatch ---------
  // Solo = the one-shot baseline above (every job pays parse + score build
  // + rank estimate). Batched = a cold daemon coalescing the whole batch
  // into one fused restart sweep, so that setup is paid once for 8 jobs.
  const std::size_t batch_jobs = 8;
  double batched_jps = 0.0;
  bool batched_identical = true;
  {
    core::ExecContext ctx;
    ctx.seed = seed;
    const core::AttackResponse ref = core::dispatch_attack(job_request(), ctx);
    if (!ref.ok()) {
      std::fprintf(stderr, "bench_svc: reference job failed: %s\n",
                   ref.message.c_str());
      return 1;
    }
    double best = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      svc::DaemonOptions bopt;
      bopt.workers = 0;  // fused sweep runs on this thread: pure batch cost
      svc::Daemon bdaemon(bopt);
      std::vector<svc::BatchJob> jobs(batch_jobs);
      for (auto& job : jobs) {
        job.request = job_request();
        job.options = jopts;
      }
      std::map<std::uint64_t, core::AttackResponse> got;
      Stopwatch watch;
      bdaemon.submit_batch(std::move(jobs),
                           [&](std::uint64_t id, core::AttackResponse&& r) {
                             got.emplace(id, std::move(r));
                           });
      while (bdaemon.run_scheduled() > 0) {
      }
      best = std::min(best, watch.seconds());
      const svc::DaemonStats bst = bdaemon.stats();
      if (bst.batched_jobs != batch_jobs) {
        std::fprintf(stderr, "bench_svc: batch did not coalesce (%llu/%zu)\n",
                     static_cast<unsigned long long>(bst.batched_jobs),
                     batch_jobs);
        return 1;
      }
      for (const auto& [id, resp] : got) {
        batched_identical =
            batched_identical && resp.ok() &&
            resp.snmf().indexes == ref.snmf().indexes &&
            resp.snmf().trapdoors == ref.snmf().trapdoors &&
            resp.snmf().best_fit_error == ref.snmf().best_fit_error;
      }
    }
    batched_jps = batch_jobs / best;
    records.push_back({"batched_snmf", 0, batch_jobs, best, batched_jps});
  }
  const double batched_speedup =
      baseline_jps > 0.0 ? batched_jps / baseline_jps : 0.0;
  std::printf("\nbatched 8-job SNMF sweep: %.1f jobs/sec (%.1fx over solo, "
              "bit-identical: %s)\n",
              batched_jps, batched_speedup, batched_identical ? "yes" : "NO");

  fs::remove_all(dir);

  std::ofstream out("BENCH_svc.json");
  out << "{\n  \"benchmark\": \"svc_daemon_throughput\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"clients\": " << r.clients
        << ", \"jobs\": " << r.jobs << ", \"seconds\": " << r.seconds
        << ", \"jobs_per_sec\": " << r.jobs_per_sec << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"svc_daemon_speedup_over_oneshot_c1\": " << speedup_c1 << ",\n";
  out << "  \"svc_daemon_speedup_over_oneshot_c8\": " << speedup_c8 << ",\n";
  out << "  \"svc_daemon_speedup_over_oneshot_c64\": " << speedup_c64
      << ",\n";
  out << "  \"svc_batched_snmf_speedup_over_solo_8job\": " << batched_speedup
      << ",\n";
  out << "  \"daemon_outputs_bit_identical\": "
      << (bit_identical ? "true" : "false") << ",\n";
  out << "  \"batched_outputs_bit_identical\": "
      << (batched_identical ? "true" : "false") << "\n";
  out << "}\n";
  std::printf("\nwrote BENCH_svc.json\n");
  return bit_identical && batched_identical ? 0 : 1;
}
