#include "rapid/rt/shm_health.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "rapid/rt/shm_transport.hpp"

namespace rapid::rt {

namespace {

/// One registered session plus the last live counter values we folded into
/// the registry, so repeated samples add only deltas (live mirrors are
/// monotone within a session; a fresh session starts them at zero).
struct TrackedSession {
  ShmSession* session = nullptr;
  std::vector<std::int64_t> last_nacks;
  std::vector<std::int64_t> last_resends;
};

std::mutex& health_mu() {
  static std::mutex mu;
  return mu;
}

std::vector<TrackedSession>& sessions() {
  static std::vector<TrackedSession> v;
  return v;
}

constexpr double kAgeClampSeconds = 1e6;  // "never beat" sentinel cap

}  // namespace

namespace detail {

void shm_health_register(ShmSession* session) {
  std::lock_guard<std::mutex> lock(health_mu());
  TrackedSession t;
  t.session = session;
  const std::size_t p =
      static_cast<std::size_t>(session->transport().num_procs());
  t.last_nacks.assign(p, 0);
  t.last_resends.assign(p, 0);
  sessions().push_back(std::move(t));
}

void shm_health_unregister(ShmSession* session) {
  std::lock_guard<std::mutex> lock(health_mu());
  auto& v = sessions();
  v.erase(std::remove_if(v.begin(), v.end(),
                         [session](const TrackedSession& t) {
                           return t.session == session;
                         }),
          v.end());
}

}  // namespace detail

int shm_health_active_sessions() {
  std::lock_guard<std::mutex> lock(health_mu());
  return static_cast<int>(sessions().size());
}

void sample_shm_health(obs::MetricsRegistry& reg) {
  std::lock_guard<std::mutex> lock(health_mu());
  auto& v = sessions();
  reg.gauge("rapid_shm_sessions",
            "Coordinator-side shm sessions currently alive")
      .set(static_cast<double>(v.size()));

  // Aggregate per rank index across sessions: worst (oldest) heartbeat,
  // alive if any session's rank is beating, counter deltas summed.
  struct RankAgg {
    double age = -1.0;  // -1 = no session has this rank
    bool alive = false;
    std::int64_t d_nacks = 0;
    std::int64_t d_resends = 0;
  };
  std::vector<RankAgg> ranks;

  for (TrackedSession& t : v) {
    ShmTransport& tp = t.session->transport();
    const std::int32_t p = tp.num_procs();
    if (static_cast<std::size_t>(p) > ranks.size()) {
      ranks.resize(static_cast<std::size_t>(p));
    }
    const double lease_timeout =
        std::max(t.session->lease_timeout_seconds(), 0.1);
    for (std::int32_t q = 0; q < p; ++q) {
      RankAgg& agg = ranks[static_cast<std::size_t>(q)];
      const double age =
          std::min(tp.lease_age_seconds(q), kAgeClampSeconds);
      agg.age = std::max(agg.age, age);
      if (age < lease_timeout) agg.alive = true;

      const std::int64_t nacks = tp.live_nacks(q);
      const std::int64_t resends = tp.live_resends(q);
      auto& last_n = t.last_nacks[static_cast<std::size_t>(q)];
      auto& last_r = t.last_resends[static_cast<std::size_t>(q)];
      if (nacks > last_n) {
        agg.d_nacks += nacks - last_n;
        last_n = nacks;
      }
      if (resends > last_r) {
        agg.d_resends += resends - last_r;
        last_r = resends;
      }
    }
  }

  for (std::size_t q = 0; q < ranks.size(); ++q) {
    const RankAgg& agg = ranks[q];
    if (agg.age < 0) continue;
    const std::vector<obs::Label> labels = {
        {"rank", std::to_string(q)}};
    reg.gauge("rapid_rank_heartbeat_age_seconds",
              "Seconds since the rank's last heartbeat lease refresh "
              "(max across active sessions)",
              labels)
        .set(agg.age);
    reg.gauge("rapid_rank_alive",
              "1 when some active session's rank beats within its lease "
              "timeout",
              labels)
        .set(agg.alive ? 1.0 : 0.0);
    reg.counter("rapid_rank_nacks_total",
                "NACK re-requests sent by this rank (all sessions)",
                labels)
        .add(agg.d_nacks);
    reg.counter("rapid_rank_resends_total",
                "Content resends served by this rank (all sessions)",
                labels)
        .add(agg.d_resends);
  }
}

}  // namespace rapid::rt
