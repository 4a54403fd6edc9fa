// Figure 2 (§VI-A2): MIP attack precision/recall vs the number of observed
// plaintext-ciphertext pairs m, on Enron-style data.
//
// Paper setting: d = 500 bloom filters, m in {125, 250, 500, 1000, 2000},
// records filtered to density in [5%, 35%], 100 queries of 15 keywords.
// Default here: m in {125, 250, 500} with 3 queries per point (~1 minute);
// --full runs the paper's m grid with 10 queries.
//
// Usage: bench_fig2 [--full] [--d=500] [--ms=125,250,500] [--queries=N]
//                   [--seed=S] [--trace-json=PATH] [--metrics-json=PATH]
#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/mip_attack.hpp"
#include "data/email_corpus.hpp"
#include "sse/adversary_view.hpp"
#include "sse/system.hpp"

using namespace aspe;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const bool full = flags.get_bool("full", false);
  const auto d = static_cast<std::size_t>(flags.get_int("d", 500));
  const std::vector<int> ms = flags.get_int_list(
      "ms", full ? std::vector<int>{125, 250, 500, 1000, 2000}
                 : std::vector<int>{125, 250, 500});
  const auto num_queries =
      static_cast<std::size_t>(flags.get_int("queries", full ? 10 : 3));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));
  bench::ObsFlags obs_flags(flags);
  core::ExecContext actx;
  actx.sink = obs_flags.sink();

  bench::print_banner(
      "Figure 2: MIP attack accuracy vs observed pairs m (Enron-style)",
      "d = 500 bloom filters, density filtered to [5%, 35%], sigma = 0.5");
  std::printf("d = %zu, queries per point: %zu\n\n", d, num_queries);

  bench::TablePrinter table({"m", "P@query", "R@query", "Time(s)", "solved"},
                            11);
  table.print_header();

  for (int m_int : ms) {
    const auto m = static_cast<std::size_t>(m_int);
    rng::Rng rng(seed + m);

    // Synthetic Enron substitute: Zipfian email corpus -> bloom filters ->
    // density filter (DESIGN.md §4.4).
    data::EmailCorpusOptions copt;
    copt.num_emails = m * 3;
    copt.vocabulary_size = 3000;
    const auto emails =
        data::EmailCorpusGenerator(copt, rng.child(1)).generate();
    const auto rows = data::encode_corpus(emails, d, 3, seed * 13 + 7);
    const auto keep = data::filter_by_density(rows, 0.05, 0.35);
    if (keep.size() < m) {
      std::printf("m=%zu: corpus yielded only %zu records in band, skipping\n",
                  m, keep.size());
      continue;
    }

    scheme::MrseOptions opt;
    opt.vocab_dim = d;
    opt.sigma = 0.5;
    opt.mu = 1.0;
    sse::RankedSearchSystem system(opt, seed * 3 + m);
    std::vector<BitVec> records;
    for (std::size_t i = 0; i < m; ++i) records.push_back(rows[keep[i]]);
    system.upload_records(records);

    std::vector<BitVec> queries;
    for (std::size_t qi = 0; qi < num_queries; ++qi) {
      queries.push_back(rng.binary_with_k_ones(d, 15));
      system.ranked_query(queries.back(), 10);
    }
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < m; ++i) ids.push_back(i);
    const auto view = sse::leak_known_records(system, ids);

    int solved = 0;
    double seconds = 0.0;
    std::vector<core::PrecisionRecall> prs;
    for (std::size_t qi = 0; qi < num_queries; ++qi) {
      core::MipAttackOptions aopt;
      aopt.solver.time_limit_seconds = 60.0;
      const auto res =
          core::run_mip_attack(view, qi, opt.mu, opt.sigma, aopt, actx);
      obs_flags.add_attack(res.telemetry);
      if (!res.found) continue;
      ++solved;
      seconds += res.telemetry.wall_seconds;
      prs.push_back(core::binary_precision_recall(queries[qi], res.query));
    }
    const auto avg = core::average(prs);
    table.print_row(
        {std::to_string(m), bench::fmt(avg.precision), bench::fmt(avg.recall),
         bench::fmt(solved > 0 ? seconds / solved : 0.0, 3),
         std::to_string(solved) + "/" + std::to_string(num_queries)});
  }

  std::printf(
      "\nShape to compare with the paper's Figure 2: precision and recall\n"
      "rise with m; by m >= 500 the reconstruction is close to exact.\n");
  obs_flags.finish();
  return 0;
}
