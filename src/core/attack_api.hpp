// The unified attack-layer API: one request/response vocabulary and one
// dispatch entry point shared by the CLI, the bench harnesses and the
// aspe::svc daemon.
//
// Before this layer, the three attacks exposed three differently-shaped
// signatures (run_lep_attack takes a KpaView, run_mip_attack a pair list +
// trapdoor + noise parameters, run_snmf_attack a CoaView), and every caller
// hand-rolled its own argument -> options translation. Now:
//
//   * `AttackRequest` is a tagged variant of LepRequest / MipRequest /
//     SnmfRequest. Each request references its corpora through `CorpusRef`s
//     — by file path (any io codec format, sniffed) or by inline payload —
//     so the same request type describes a CLI invocation over files, a
//     daemon job shipped over a socket, or an in-memory bench call.
//   * `dispatch_attack(request, ctx)` resolves the corpora, assembles the
//     adversary view, runs the attack, and returns an `AttackResponse`
//     carrying a status, a typed error code, and the result variant. It
//     never throws: failures are mapped onto the ErrorCode taxonomy so a
//     daemon can turn them into protocol status codes and the CLI into
//     distinct exit codes.
//
// The per-attack free functions (run_lep_attack / run_mip_attack /
// run_snmf_attack) remain as the type-specific kernels underneath dispatch —
// see docs/api.md for the migration note.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "core/exec_context.hpp"
#include "core/lep.hpp"
#include "core/mip_attack.hpp"
#include "core/score_cache.hpp"
#include "core/snmf_attack.hpp"
#include "scheme/split_encryptor.hpp"

namespace aspe::core {

// ------------------------------------------------------------------ errors

/// The typed failure taxonomy of the attack API boundary. Every failure a
/// caller can observe through `dispatch_attack` (or the CLI's exit code, or
/// the svc protocol's status byte) is one of these four:
enum class ErrorCode : std::uint8_t {
  Ok = 0,
  /// The request itself is wrong: missing or malformed corpora, dimension
  /// mismatches, out-of-range parameters, unknown tags.
  BadInput = 1,
  /// The attack's preconditions are not met *yet*: fewer than d+1
  /// independent known pairs / trapdoors, a session still collecting its
  /// basis. Retrying with more observations can succeed.
  NotReady = 2,
  /// A resource budget was exhausted before the attack could run or finish:
  /// job deadline expired, queue overloaded, time/node limits.
  Budget = 3,
  /// Everything else — a bug or an unmodeled condition.
  Internal = 4,
};

/// Short stable name ("ok", "bad-input", "not-ready", "budget", "internal")
/// for logs, protocol dumps and CLI diagnostics.
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// Typed error thrown at the attack API boundary. Derives from aspe::Error
/// so existing catch sites keep working; new code should catch core::Error
/// and branch on `code` instead of parsing what().
class Error : public ::aspe::Error {
 public:
  Error(ErrorCode code, const std::string& what)
      : ::aspe::Error(what), code(code) {}

  ErrorCode code;
};

/// Classify any exception onto the taxonomy: core::Error reports its own
/// code; InvalidArgument and io::IoError are BadInput; NumericalError is
/// NotReady (the attack's mathematical preconditions were not met — more
/// observations may fix it); everything else is Internal.
[[nodiscard]] ErrorCode error_code_of(const std::exception& e);

/// Exit code the CLI maps `code` to: 0 Ok, 2 BadInput, 4 NotReady,
/// 5 Budget, 1 Internal. (3 is taken by "no feasible point" — see
/// AttackStatus::NoSolution.)
[[nodiscard]] int exit_code_for(ErrorCode code);

// ----------------------------------------------------------------- corpora

/// A reference to one corpus: either a file path (resolved through
/// io::open_reader, so both the text format and the io::v2 binary container
/// work, sniffed) or an inline payload. Inline payloads are held through
/// shared_ptr so a warm cache (the daemon's) can hand the same parsed corpus
/// to many jobs without copying.
struct CorpusRef {
  std::string path;  // non-empty => load from file
  std::shared_ptr<const std::vector<scheme::CipherPair>> ciphers;  // inline
  std::shared_ptr<const std::vector<Vec>> vecs;                    // inline

  [[nodiscard]] static CorpusRef from_path(std::string p);
  [[nodiscard]] static CorpusRef inline_ciphers(
      std::vector<scheme::CipherPair> db);
  [[nodiscard]] static CorpusRef inline_vecs(std::vector<Vec> v);

  /// True when the ref names no source at all (no path, no inline payload).
  [[nodiscard]] bool empty() const {
    return path.empty() && ciphers == nullptr && vecs == nullptr;
  }

  /// Resolve to a ciphertext database: the inline payload when present,
  /// otherwise the file at `path` read as a cipher database. Throws
  /// core::Error{BadInput} when the ref is empty or holds the wrong record
  /// kind, io errors surface as BadInput via dispatch.
  [[nodiscard]] std::shared_ptr<const std::vector<scheme::CipherPair>>
  load_ciphers(const char* what) const;

  /// Resolve to a list of real vectors (same rules).
  [[nodiscard]] std::shared_ptr<const std::vector<Vec>> load_vecs(
      const char* what) const;
};

// ---------------------------------------------------------------- requests

/// Algorithm 1 (LEP, §III.B). `known_plain` holds the leaked plaintext
/// *records* P_i, aligned with the first entries of `db`; dispatch derives
/// the plain indexes I_i and pairs them exactly as the CLI always did.
struct LepRequest {
  CorpusRef known_plain;  // vec corpus
  CorpusRef db;           // cipher corpus (indexes)
  CorpusRef trapdoors;    // cipher corpus
  LepOptions options;
};

/// Algorithm 2 (MIP, §IV.B) against one observed trapdoor.
struct MipRequest {
  CorpusRef known_plain;  // vec corpus; entries are binarized at 0.5
  CorpusRef db;           // cipher corpus, aligned with known_plain
  CorpusRef trapdoors;    // cipher corpus
  std::size_t trapdoor_id = 0;
  double mu = 1.0;
  double sigma = 0.5;
  MipAttackOptions options;
};

/// Algorithm 3 (SNMF, §V.B). options.rank == 0 estimates the latent
/// dimension from rank(R) before the factorization, recording the choice in
/// the response counter "snmf.estimated_rank".
struct SnmfRequest {
  CorpusRef db;         // cipher corpus (indexes)
  CorpusRef trapdoors;  // cipher corpus
  SnmfAttackOptions options;
  /// Daemon-only hint: when true, a daemon that still holds a warm
  /// CoaSession for the identical corpus may resume its factorization
  /// instead of running the cold restart sweep. The resumed result
  /// converges to the same fixed point but is *not* bitwise identical to
  /// the cold path; leave false (the default) for reproducible output.
  bool reuse_session = false;
};

enum class AttackKind : std::uint8_t { Lep = 1, Mip = 2, Snmf = 3 };

/// The unified job description. One tagged variant — the CLI builds it from
/// flags, the daemon decodes it from a Submit frame, benches construct it
/// directly.
struct AttackRequest {
  std::variant<LepRequest, MipRequest, SnmfRequest> request;

  [[nodiscard]] AttackKind kind() const {
    switch (request.index()) {
      case 0: return AttackKind::Lep;
      case 1: return AttackKind::Mip;
      default: return AttackKind::Snmf;
    }
  }
};

// ---------------------------------------------------------------- response

enum class AttackStatus : std::uint8_t {
  /// The attack ran and produced its result.
  Ok = 0,
  /// The attack ran to completion but found nothing (currently only MIP:
  /// no feasible query within the limits). The result variant still holds
  /// the typed result (found == false) so telemetry is available.
  NoSolution = 1,
  /// The attack failed; `error` / `message` say how, `result` is empty.
  Failed = 2,
};

struct AttackResponse {
  AttackStatus status = AttackStatus::Failed;
  ErrorCode error = ErrorCode::Internal;  // Ok unless status == Failed
  std::string message;                    // error text when Failed

  std::variant<std::monostate, LepResult, MipAttackResult, SnmfAttackResult>
      result;

  /// The result's telemetry block (wall time always; spans/counters merged
  /// when a sink was attached). Kept at top level so failed runs can still
  /// report cost, and so protocol encoders need not unpack the variant.
  AttackTelemetry telemetry;

  [[nodiscard]] bool ok() const { return status != AttackStatus::Failed; }

  [[nodiscard]] const LepResult& lep() const {
    return std::get<LepResult>(result);
  }
  [[nodiscard]] const MipAttackResult& mip() const {
    return std::get<MipAttackResult>(result);
  }
  [[nodiscard]] const SnmfAttackResult& snmf() const {
    return std::get<SnmfAttackResult>(result);
  }
};

// ------------------------------------------------------------------- hooks

/// Optional warm state a long-lived host (the svc daemon) threads through
/// dispatch. Everything here is an accelerator, never an input: a dispatch
/// with hooks returns bit-identical results to one without.
struct DispatchHooks {
  /// Shared score-matrix cache for SNMF. Only consulted when `score_key` is
  /// non-empty; the key must identify the (db, trapdoors) corpus pair
  /// *content* — the daemon keys on stat fingerprints. The per-call
  /// ctx.memory_budget_bytes bounds the cache's resident bytes.
  ScoreMatrixCache* score_cache = nullptr;
  std::string score_key;
};

/// The single entry point the CLI, the daemon and the bench harnesses route
/// through: resolve corpora, assemble the adversary view, validate the
/// paper's preconditions, run the attack kernel, and map any failure onto
/// the ErrorCode taxonomy. Never throws; the response's status/error carry
/// the outcome. Results are bit-identical to calling the per-attack free
/// functions on the same resolved inputs (dispatch adds only corpus
/// resolution and, for SNMF with rank == 0, the same rank estimation the
/// CLI used to perform — at options.rank_tol, over a score matrix built
/// once and shared with the factorization).
[[nodiscard]] AttackResponse dispatch_attack(const AttackRequest& request,
                                             const ExecContext& ctx = {});

/// Hook-carrying overload for warm hosts (see DispatchHooks). Passing a
/// default-constructed hooks object is exactly the 2-arg form.
[[nodiscard]] AttackResponse dispatch_attack(const AttackRequest& request,
                                             const ExecContext& ctx,
                                             const DispatchHooks& hooks);

}  // namespace aspe::core
