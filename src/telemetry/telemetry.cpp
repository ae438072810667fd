#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace flexnet {

TelemetryCounters::TelemetryCounters(std::pmr::memory_resource* mr)
    : vc_index_(mr),
      router_requests_(mr),
      router_conflicts_(mr),
      router_grants_(mr),
      router_injections_(mr),
      link_delivered_packets_(mr),
      link_delivered_phits_(mr),
      link_sent_phits_(mr),
      link_credit_phits_(mr),
      link_occupancy_sum_(mr),
      link_flits_(mr),
      link_flit_stalls_(mr),
      link_transit_flits_(mr),
      vc_sends_(mr),
      vc_occupancy_sum_(mr) {}

void TelemetryCounters::configure(int routers,
                                  const std::vector<int>& link_vcs) {
  routers_ = routers;
  links_ = static_cast<int>(link_vcs.size());
  vc_index_.assign(static_cast<std::size_t>(links_) + 1, 0);
  int total_vcs = 0;
  for (int l = 0; l < links_; ++l) {
    vc_index_[static_cast<std::size_t>(l)] = total_vcs;
    total_vcs += link_vcs[static_cast<std::size_t>(l)];
  }
  vc_index_[static_cast<std::size_t>(links_)] = total_vcs;

  const auto zero = [](std::pmr::vector<std::int64_t>& v, int n) {
    v.assign(static_cast<std::size_t>(n), 0);
  };
  zero(router_requests_, routers_);
  zero(router_conflicts_, routers_);
  zero(router_grants_, routers_);
  zero(router_injections_, routers_);
  zero(link_delivered_packets_, links_);
  zero(link_delivered_phits_, links_);
  zero(link_sent_phits_, links_);
  zero(link_credit_phits_, links_);
  zero(link_occupancy_sum_, links_);
  zero(link_flits_, links_);
  zero(link_flit_stalls_, links_);
  zero(link_transit_flits_, links_);
  zero(vc_sends_, total_vcs);
  zero(vc_occupancy_sum_, total_vcs);
  steps_ = 0;
  active_links_sum_ = 0;
  alloc_routers_sum_ = 0;
  send_routers_sum_ = 0;
  live_packets_sum_ = 0;
}

void TelemetryCounters::expand_to(int routers,
                                  const std::vector<int>& link_vcs) {
  // Grow in place to a superset shape, keeping every existing value at its
  // (router, link, vc) id and zero-filling the new slots.
  TelemetryCounters wider(vc_index_.get_allocator().resource());
  wider.configure(routers, link_vcs);
  wider.enabled_ = enabled_;
  for (int r = 0; r < routers_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    wider.router_requests_[i] = router_requests_[i];
    wider.router_conflicts_[i] = router_conflicts_[i];
    wider.router_grants_[i] = router_grants_[i];
    wider.router_injections_[i] = router_injections_[i];
  }
  for (int l = 0; l < links_; ++l) {
    const auto i = static_cast<std::size_t>(l);
    wider.link_delivered_packets_[i] = link_delivered_packets_[i];
    wider.link_delivered_phits_[i] = link_delivered_phits_[i];
    wider.link_sent_phits_[i] = link_sent_phits_[i];
    wider.link_credit_phits_[i] = link_credit_phits_[i];
    wider.link_occupancy_sum_[i] = link_occupancy_sum_[i];
    wider.link_flits_[i] = link_flits_[i];
    wider.link_flit_stalls_[i] = link_flit_stalls_[i];
    wider.link_transit_flits_[i] = link_transit_flits_[i];
    for (int v = 0; v < vcs_of_link(l); ++v) {
      const auto from = static_cast<std::size_t>(vc_index_[i] + v);
      const auto to = static_cast<std::size_t>(wider.vc_index_[i] + v);
      wider.vc_sends_[to] = vc_sends_[from];
      wider.vc_occupancy_sum_[to] = vc_occupancy_sum_[from];
    }
  }
  wider.steps_ = steps_;
  wider.active_links_sum_ = active_links_sum_;
  wider.alloc_routers_sum_ = alloc_routers_sum_;
  wider.send_routers_sum_ = send_routers_sum_;
  wider.live_packets_sum_ = live_packets_sum_;
  *this = std::move(wider);
}

void TelemetryCounters::merge(const TelemetryCounters& other) {
  if (!other.configured()) return;
  if (!configured()) {
    // Identity on this side: adopt the other's shape and values (the
    // enabled flag stays local — an aggregate is never an update target).
    const bool enabled = enabled_;
    *this = other;
    enabled_ = enabled;
    return;
  }
  if (routers_ != other.routers_ || links_ != other.links_ ||
      vc_index_ != other.vc_index_) {
    // Differently-shaped networks (a sweep mixing arrangements or scales):
    // widen to the union shape so addition happens per (router, link, vc)
    // id. The union of a set of shapes is independent of merge order, so
    // the aggregate stays deterministic.
    const int routers = std::max(routers_, other.routers_);
    const int links = std::max(links_, other.links_);
    std::vector<int> link_vcs(static_cast<std::size_t>(links), 0);
    for (int l = 0; l < links; ++l) {
      link_vcs[static_cast<std::size_t>(l)] =
          std::max(l < links_ ? vcs_of_link(l) : 0,
                   l < other.links_ ? other.vcs_of_link(l) : 0);
    }
    expand_to(routers, link_vcs);
  }
  for (int r = 0; r < other.routers_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    router_requests_[i] += other.router_requests_[i];
    router_conflicts_[i] += other.router_conflicts_[i];
    router_grants_[i] += other.router_grants_[i];
    router_injections_[i] += other.router_injections_[i];
  }
  for (int l = 0; l < other.links_; ++l) {
    const auto i = static_cast<std::size_t>(l);
    link_delivered_packets_[i] += other.link_delivered_packets_[i];
    link_delivered_phits_[i] += other.link_delivered_phits_[i];
    link_sent_phits_[i] += other.link_sent_phits_[i];
    link_credit_phits_[i] += other.link_credit_phits_[i];
    link_occupancy_sum_[i] += other.link_occupancy_sum_[i];
    link_flits_[i] += other.link_flits_[i];
    link_flit_stalls_[i] += other.link_flit_stalls_[i];
    link_transit_flits_[i] += other.link_transit_flits_[i];
    for (int v = 0; v < other.vcs_of_link(l); ++v) {
      const auto to = static_cast<std::size_t>(vc_index_[i] + v);
      const auto from = static_cast<std::size_t>(other.vc_index_[i] + v);
      vc_sends_[to] += other.vc_sends_[from];
      vc_occupancy_sum_[to] += other.vc_occupancy_sum_[from];
    }
  }
  steps_ += other.steps_;
  active_links_sum_ += other.active_links_sum_;
  alloc_routers_sum_ += other.alloc_routers_sum_;
  send_routers_sum_ += other.send_routers_sum_;
  live_packets_sum_ += other.live_packets_sum_;
}

std::int64_t TelemetryCounters::total_requests() const {
  return std::accumulate(router_requests_.begin(), router_requests_.end(),
                         std::int64_t{0});
}

std::int64_t TelemetryCounters::total_grants() const {
  return std::accumulate(router_grants_.begin(), router_grants_.end(),
                         std::int64_t{0});
}

std::int64_t TelemetryCounters::total_conflicts() const {
  return std::accumulate(router_conflicts_.begin(), router_conflicts_.end(),
                         std::int64_t{0});
}

std::string TelemetryCounters::render() const {
  std::ostringstream out;
  out << "telemetry v1 routers=" << routers_ << " links=" << links_ << '\n';
  out << "net.steps " << steps_ << '\n';
  out << "net.active_links.sum " << active_links_sum_ << '\n';
  out << "net.alloc_routers.sum " << alloc_routers_sum_ << '\n';
  out << "net.send_routers.sum " << send_routers_sum_ << '\n';
  out << "net.live_packets.sum " << live_packets_sum_ << '\n';
  for (int r = 0; r < routers_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    out << "router." << r << ".requests " << router_requests_[i] << '\n';
    out << "router." << r << ".grants " << router_grants_[i] << '\n';
    out << "router." << r << ".conflicts " << router_conflicts_[i] << '\n';
    // Derived: proposals that did not become a grant re-request on a later
    // iteration or cycle (== conflicts under the current separable
    // allocator, but kept as its own line so the definition survives
    // allocator changes).
    out << "router." << r << ".re_requests "
        << router_requests_[i] - router_grants_[i] << '\n';
    out << "router." << r << ".injections " << router_injections_[i] << '\n';
  }
  for (int l = 0; l < links_; ++l) {
    const auto i = static_cast<std::size_t>(l);
    out << "link." << l << ".delivered_packets "
        << link_delivered_packets_[i] << '\n';
    out << "link." << l << ".delivered_phits " << link_delivered_phits_[i]
        << '\n';
    out << "link." << l << ".sent_phits " << link_sent_phits_[i] << '\n';
    out << "link." << l << ".credit_phits " << link_credit_phits_[i] << '\n';
    out << "link." << l << ".occupancy_sum " << link_occupancy_sum_[i]
        << '\n';
    out << "link." << l << ".flits " << link_flits_[i] << '\n';
    out << "link." << l << ".flit_stalls " << link_flit_stalls_[i] << '\n';
    out << "link." << l << ".transit_flits " << link_transit_flits_[i]
        << '\n';
    for (int v = 0; v < vcs_of_link(l); ++v) {
      const auto s = static_cast<std::size_t>(vc_index_[i] + v);
      out << "link." << l << ".vc." << v << ".sends " << vc_sends_[s]
          << '\n';
      out << "link." << l << ".vc." << v << ".occupancy_sum "
          << vc_occupancy_sum_[s] << '\n';
    }
  }
  return out.str();
}

}  // namespace flexnet
