// Algorithm 2 — Mixed Integer Linear Program (MIP): the KPA attack on MRSE
// (§IV.B, Security Risk 2).
//
// The adversary holds m pairs (P_i, I'_i) with binary P_i, the ciphertext
// trapdoor T'_j of one query, and the public noise parameters (mu, sigma).
// Rewriting Eq. (12) as
//
//   E_i.V_j = rhat * I'_i^T T'_j - that - P_i.Q_j     (rhat = 1/r, that = t/r)
//
// and using that E_i.V_j ~ N(mu, sigma^2), the attack searches for
// (rhat > 0, that > 0, Q_j in {0,1}^d, sum Q_j >= 1) such that each noise
// term lies in [mu - l*sigma, mu + l*sigma] (Eq. (14)). Any feasible point
// is returned; the paper sets l = 3 (99% coverage).
//
// The Gurobi solver of the paper is replaced by opt::solve_mip (see
// DESIGN.md §4.1).
#pragma once

#include <cstdint>
#include <span>

#include "core/exec_context.hpp"
#include "core/telemetry.hpp"
#include "opt/mip.hpp"
#include "sse/adversary_view.hpp"

namespace aspe::core {

/// How the primal heuristic ranks candidate keywords.
enum class RootOrdering {
  /// Rank keyword k by the empirical correlation between P_i[k] and the
  /// observed scores c_i — records containing a true query keyword score
  /// higher. O(m d), scales to the paper's d = 1000 settings. The default:
  /// Algorithm 2 needs only *a* feasible point, and the heuristic finds one
  /// from this ordering without any simplex work.
  Correlation,
  /// Solve the LP relaxation of Eq. (14) at the root (faithful to a
  /// B&B solver's root node, cost grows with the simplex basis ~ (2m)^2).
  /// Opt-in, for ablations.
  LpRelaxation,
};

struct MipAttackOptions {
  double l = 3.0;  // noise interval half width, in sigmas
  RootOrdering root_ordering = RootOrdering::Correlation;
  /// Bounds making the continuous variables finite for the LP relaxation;
  /// rhat = 1/r and that = t/r with r in [0.5, 2], t in [0.1, 1] under the
  /// reference trapdoor generator, so these are generous.
  double rhat_min = 1e-4;
  double rhat_max = 1e4;
  double that_min = 1e-6;
  double that_max = 1e4;
  /// Try the primal heuristic (root-ordering rounding + exact 2-variable
  /// refit + greedy bit-flip repair) before branch and bound. This mirrors the rounding/
  /// diving heuristics a commercial solver such as Gurobi runs at the root
  /// node, and is what makes paper-scale instances tractable.
  bool use_heuristic = true;
  /// Cap on greedy repair flips (0 selects 3d automatically).
  std::size_t max_repair_flips = 0;
  opt::MipOptions solver = default_solver();

  [[nodiscard]] static opt::MipOptions default_solver() {
    opt::MipOptions s;
    s.first_feasible = true;  // Algorithm 2 wants any feasible point
    s.time_limit_seconds = 20.0;
    return s;
  }
};

struct MipAttackResult {
  bool found = false;
  BitVec query;        // reconstructed Q_j
  double rhat = 0.0;   // 1 / r_j
  double that = 0.0;   // t_j / r_j
  /// How the feasible point (or failure) was produced: Heuristic when the
  /// primal heuristic answered and branch and bound never ran; NotRun only
  /// in a default-constructed result.
  opt::MipStatus status = opt::MipStatus::NotRun;
  /// Wall time, span summary and counter snapshot for this run. Driver
  /// counters: "mip.bnb.nodes" and "mip.bnb.simplex_iterations" (both zero
  /// when the heuristic answers), "mip.heuristic.fit_probes",
  /// "mip.heuristic.flip_scores", "mip.heuristic.polish_flips",
  /// "mip.model_rows" and "mip.model_cols".
  AttackTelemetry telemetry;
};

/// Attack one ciphertext trapdoor using the KPA view's known pairs.
/// `mu` and `sigma` are MRSE's public noise parameters.
///
/// Signature convention (docs/api.md): inputs first, options next,
/// ExecContext last, both defaulted — the default ExecContext runs serially,
/// matching the historical options-only form.
///
/// The primal heuristic's per-keyword fit_rt probes fan out over
/// ctx.threads, with selection done serially in keyword order; the
/// maximum-likelihood polish scores its flips serially in closed form
/// (detail::FlipScorer). The recovered query is bit-identical at any thread
/// count. The attack consumes no randomness; ctx.seed is unused. Only
/// telemetry (wall clock) varies across thread counts.
[[nodiscard]] MipAttackResult run_mip_attack(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options = {}, const ExecContext& ctx = {});

/// Convenience: attack the j-th observed trapdoor of an MRSE KPA view.
[[nodiscard]] MipAttackResult run_mip_attack(
    const sse::MrseKpaView& view, std::size_t trapdoor_id, double mu,
    double sigma, const MipAttackOptions& options = {},
    const ExecContext& ctx = {});

/// Build the Eq. (14) feasibility model (exposed for tests and ablations).
[[nodiscard]] opt::Model build_mip_attack_model(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options);

namespace detail {

/// Sparse incidence of the known records, both ways, in CSR form: the rows
/// whose record contains keyword k, and the keywords record i contains (both
/// ascending).
struct RecordIncidence {
  explicit RecordIncidence(
      const std::vector<sse::KnownBinaryPair>& known_pairs);

  [[nodiscard]] std::size_t num_keywords() const {
    return row_start_.size() - 1;
  }
  [[nodiscard]] std::span<const std::uint32_t> rows_with(std::size_t k) const {
    return {rows_.data() + row_start_[k], rows_.data() + row_start_[k + 1]};
  }
  [[nodiscard]] std::span<const std::uint32_t> keywords_in(
      std::size_t i) const {
    return {keywords_.data() + keyword_start_[i],
            keywords_.data() + keyword_start_[i + 1]};
  }

 private:
  std::vector<std::size_t> row_start_;      // d + 1 offsets into rows_
  std::vector<std::uint32_t> rows_;
  std::vector<std::size_t> keyword_start_;  // m + 1 offsets into keywords_
  std::vector<std::uint32_t> keywords_;
};

/// The maximum-likelihood objective of Algorithm 2's polish in closed form.
/// For a binary query q with inner products a_i = P_i.q, the (rhat, that)
/// regression of a_i + mu on the scores c_i leaves the residual sum of
/// squares
///
///   SSE = rhat^2 Sxx - 2 rhat Sxy + Syy + m r0^2,
///
/// with c~ = c - cbar, Sxx = sum c~^2, Sxy = sum c~_i a_i,
/// Syy = sum a^2 - (sum a)^2 / m, rhat = Sxy / Sxx and that = rhat cbar - bbar
/// clamped to the option bounds, and r0 the part of that's residual the
/// clamp leaves. Flipping keyword k by delta = +-1 moves sum a by
/// delta |S_k|, sum a^2 by 2 delta (P^T a)_k + |S_k| and Sxy by
/// delta (P^T c~)_k, so every single-bit flip scores in O(1). The a-terms are
/// integers, exact; Sxy is recomputed from a after each applied flip, so no
/// rounding drift accumulates along a descent.
class FlipScorer {
 public:
  /// `incidence` must outlive the scorer.
  FlipScorer(const RecordIncidence& incidence, const Vec& c, double mu,
             const MipAttackOptions& options);

  /// Start a descent at `q` (d entries).
  void reset(const BitVec& q);
  [[nodiscard]] const BitVec& query() const { return q_; }
  [[nodiscard]] std::size_t ones() const { return ones_; }
  /// SSE of the current query.
  [[nodiscard]] double sse() const { return score(sum_a_, sum_a2_, sxy_); }
  /// SSE after flipping bit k of the current query.
  [[nodiscard]] double flip_sse(std::size_t k) const {
    const std::int64_t delta = q_[k] != 0 ? -1 : 1;
    return score(sum_a_ + delta * col_size_[k],
                 sum_a2_ + 2 * delta * pta_[k] + col_size_[k],
                 sxy_ + static_cast<double>(delta) * ptc_[k]);
  }
  /// Apply the flip of bit k.
  void flip(std::size_t k);

 private:
  [[nodiscard]] double score(std::int64_t sum_a, std::int64_t sum_a2,
                             double sxy) const;

  const RecordIncidence& incidence_;
  double mu_;
  double rhat_min_, rhat_max_, that_min_, that_max_;
  double cbar_ = 0.0;
  double sxx_ = 0.0;
  Vec ctilde_;
  std::vector<std::int64_t> col_size_;  // |S_k|
  Vec ptc_;                             // (P^T c~)_k
  // Descent state.
  BitVec q_;
  std::size_t ones_ = 0;
  std::vector<std::int64_t> a_;    // P q
  std::vector<std::int64_t> pta_;  // P^T a
  std::int64_t sum_a_ = 0;
  std::int64_t sum_a2_ = 0;
  double sxy_ = 0.0;
};

}  // namespace detail

}  // namespace aspe::core
