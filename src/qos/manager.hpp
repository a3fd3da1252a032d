// Multi-tenant QoS: per-application write-bandwidth control (DESIGN.md §2.8).
//
// Each registered application owns a TokenBucket (rate + burst, refilled in
// virtual time).  The FileSystem asks the manager to admit every *first
// attempt* of a write chunk; a chunk whose bucket lacks tokens is deferred
// (FIFO per app) and resumed by an engine event once the bucket refilled --
// the chunk's flow is simply issued later, so the fluid core's queue-weight
// fairness between admitted flows is untouched.  Retries and failovers
// re-issue chunks whose bytes were already paid for and are never charged
// again (the retry ladder cannot double-spend).
//
// With borrowing enabled (QosPolicy::borrow) the buckets are coupled through
// a BorrowLedger: refill overflow of idle apps is pooled, deficient apps
// first reclaim their own pooled spares and then draw others' (AdapTBF).
//
// Determinism contract: the manager draws no randomness and never reads the
// host clock; admissions and wakes are pure functions of the (seeded) event
// sequence, so QoS-enabled campaigns stay --jobs-invariant, and with
// QosPolicy::enabled == false the harness never constructs a manager, so
// default runs keep their exact legacy bytes (golden CSVs byte-identical).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "qos/borrow.hpp"
#include "qos/token_bucket.hpp"
#include "sim/fluid.hpp"
#include "util/units.hpp"

namespace beesim::qos {

/// Per-application QoS parameters.
struct QosAppSpec {
  /// Reserved (sustained) write bandwidth, MiB/s.  Must be > 0.
  util::MiBps rate = 0.0;
  /// Bucket depth in bytes; 0 defaults to one second at `rate`.
  util::Bytes burst = 0;
  /// SLO the app is judged against (MiB/s); 0 defaults to `rate`.
  util::MiBps sloRate = 0.0;
};

/// Run-level QoS policy (CLI: --qos*).
struct QosPolicy {
  /// Master switch; when false the harness does not even construct the
  /// manager, so untouched runs stay bitwise-identical.
  bool enabled = false;
  /// Default per-application reserved rate (MiB/s) for apps without an
  /// explicit QosAppSpec.
  util::MiBps rate = 0.0;
  /// Default bucket depth in bytes (0 = one second at `rate`).
  util::Bytes burst = 0;
  /// Allow under-subscribed apps to lend unused tokens to over-subscribed
  /// ones (BorrowLedger).
  bool borrow = false;
  /// An app violates its SLO when achieved < sloTolerance * sloRate.
  double sloTolerance = 0.95;
};

/// Default app spec derived from the policy (burst defaulted to one second
/// of the reserved rate).
QosAppSpec makeAppSpec(const QosPolicy& policy);

/// SLO rate an app is judged against (spec.sloRate, falling back to the
/// reserved rate).
util::MiBps sloRate(const QosAppSpec& spec);

/// What the QoS layer did during a run (exported as qos_* columns).
struct QosStats {
  double tokensIssued = 0.0;     ///< bytes admitted through the buckets
  double tokensBorrowed = 0.0;   ///< bytes drawn from other apps' spares
  double tokensReclaimed = 0.0;  ///< own pooled bytes taken back on demand
  std::size_t deferrals = 0;     ///< chunks that had to wait for tokens
  util::Seconds throttleSeconds = 0.0;  ///< summed per-chunk waiting time
  std::size_t sloViolations = 0;        ///< apps below tolerance * sloRate
};

class QosManager {
 public:
  /// `policy.enabled` must be true (the harness only constructs a manager
  /// for QoS-enabled runs).
  QosManager(sim::FluidSimulator& fluid, const QosPolicy& policy);

  QosManager(const QosManager&) = delete;
  QosManager& operator=(const QosManager&) = delete;

  const QosPolicy& policy() const { return policy_; }

  /// Register one application covering the given compute nodes.  Throws
  /// ConfigError on a non-positive/non-finite rate, or if a node is already
  /// owned by another app.  Returns the app id (dense, 0-based).
  std::size_t registerApp(const QosAppSpec& spec, const std::vector<std::size_t>& nodes);

  std::size_t appCount() const { return apps_.size(); }
  const QosAppSpec& appSpec(std::size_t app) const { return apps_.at(app).spec; }

  /// FileSystem hook: admit a write chunk of `bytes` issued from compute
  /// node `node`.  Returns true when the chunk may start immediately.
  /// Returns false when it was deferred; `resume` then fires from an engine
  /// event once the tokens accrued (the caller must issue the chunk there
  /// WITHOUT asking for admission again -- the tokens are spent on resume).
  /// Chunks from nodes no app registered pass through unmanaged.  `resume`
  /// becomes a std::function only when the chunk queues, so an admission
  /// that goes through at once allocates nothing.
  template <typename Resume>
  bool admitChunk(std::size_t node, util::Bytes bytes, Resume&& resume) {
    const std::size_t id = node < nodeApp_.size() ? nodeApp_[node] : kNoApp;
    if (id == kNoApp) return true;  // node not under QoS management
    if (admitNow(id, bytes)) return true;
    defer(id, bytes, std::function<void()>(std::forward<Resume>(resume)));
    return false;
  }

  /// Aggregated run totals (sloViolations is filled by the harness, which
  /// knows the achieved per-app bandwidths; see countSloViolation).
  const QosStats& stats() const { return totals_; }
  QosStats& stats() { return totals_; }

  /// Per-app accounting (inspectable by tests and the harness).
  struct AppStats {
    double issued = 0.0;
    double borrowed = 0.0;
    double reclaimed = 0.0;
    std::size_t deferrals = 0;
    util::Seconds throttleSeconds = 0.0;
  };
  const AppStats& appStats(std::size_t app) const { return apps_.at(app).stats; }

  /// Chunks of `app` currently waiting for tokens (test hook).
  std::size_t waitingChunks(std::size_t app) const { return apps_.at(app).waiters.size(); }

  /// Current token balance of `app`'s bucket (test hook).
  double tokens(std::size_t app) const { return apps_.at(app).bucket.tokens(); }

  /// Spare tokens currently pooled across all lenders (test hook).
  double poolBytes() const { return ledger_.poolBytes(); }

 private:
  struct Waiter {
    util::Bytes bytes = 0;
    std::function<void()> resume;
    util::Seconds since = 0.0;
  };
  struct App {
    QosAppSpec spec;
    TokenBucket bucket;
    std::deque<Waiter> waiters;
    bool wakeArmed = false;
    AppStats stats;
  };

  /// The admit-at-once half of admitChunk: true when `app` has no waiters
  /// and its tokens cover `bytes` (tokens spent).
  bool admitNow(std::size_t app, util::Bytes bytes);
  /// The queueing half: count the deferral and append the waiter.
  void defer(std::size_t app, util::Bytes bytes, std::function<void()> resume);
  /// Refill every bucket to `now`; with borrowing on, pool the overflow
  /// (per-lender contribution capped at its burst).  O(apps) -- fine for
  /// the 10-100-tenant scale the bench sweeps.
  void collect(util::Seconds now);
  /// Charge `bytes` against `app`'s bucket, borrowing/reclaiming as allowed.
  /// True when the chunk was admitted (tokens spent).
  bool tryAdmit(std::size_t app, util::Bytes bytes, util::Seconds now);
  /// Schedule the next wake for `app`'s queue head (no-op if armed/empty).
  void armWake(std::size_t app);
  /// Drain `app`'s waiter queue while tokens last, then re-arm.
  void wake(std::size_t app);

  sim::FluidSimulator& fluid_;
  QosPolicy policy_;
  std::vector<App> apps_;
  /// node id -> app id (kNoApp = unmanaged).
  std::vector<std::size_t> nodeApp_;
  BorrowLedger ledger_;
  QosStats totals_;

  static constexpr std::size_t kNoApp = static_cast<std::size_t>(-1);
};

}  // namespace beesim::qos
