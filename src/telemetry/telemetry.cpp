#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace flexnet {
namespace {

using T = TelemetryCounters;

/// One rendered line: counter `id` of its group, less counter `minus`
/// when that is set (a derived line), under `name`.
struct Entry { int id; const char* name; int minus = -1; };

// One table per group, in render order: the only place a counter is named.
constexpr Entry kNetTable[] = {
    {T::kSteps, "steps"}, {T::kActiveLinks, "active_links.sum"},
    {T::kAllocRouters, "alloc_routers.sum"},
    {T::kSendRouters, "send_routers.sum"},
    {T::kLivePackets, "live_packets.sum"}};
constexpr Entry kRouterTable[] = {
    {T::kRequests, "requests"}, {T::kGrants, "grants"},
    {T::kConflicts, "conflicts"},
    // Derived: proposals that did not become a grant re-request on a later
    // iteration or cycle (== conflicts under the current separable
    // allocator, but kept as its own line so the definition survives
    // allocator changes).
    {T::kRequests, "re_requests", T::kGrants},
    {T::kInjections, "injections"}};
constexpr Entry kLinkTable[] = {
    {T::kDeliveredPackets, "delivered_packets"},
    {T::kDeliveredPhits, "delivered_phits"}, {T::kSentPhits, "sent_phits"},
    {T::kCreditPhits, "credit_phits"}, {T::kLinkOccupancy, "occupancy_sum"},
    {T::kFlits, "flits"}, {T::kFlitStalls, "flit_stalls"},
    {T::kTransitFlits, "transit_flits"}};
constexpr Entry kVcTable[] = {{T::kVcSends, "sends"},
                              {T::kVcOccupancy, "occupancy_sum"}};

/// Arity pin: `table` has one plain entry per stored id of its group (all
/// `arity` of them) plus `derived` derived lines, so a new id fails to
/// compile until its entry exists.
template <std::size_t N>
constexpr bool pinned(const Entry (&table)[N], int arity, int derived = 0) {
  unsigned plain = 0;
  for (const Entry& e : table) plain |= e.minus < 0 ? 1u << e.id : 0u;
  return N == std::size_t(arity + derived) && plain == (1u << arity) - 1;
}
static_assert(pinned(kNetTable, T::kNetN));
static_assert(pinned(kRouterTable, T::kRouterN, /*derived=*/1));
static_assert(pinned(kLinkTable, T::kLinkN));
static_assert(pinned(kVcTable, T::kVcN));

/// One "<prefix><name> value" line per entry of `table`, read from `row`.
template <std::size_t N>
void render_row(std::ostringstream& out, const std::string& prefix,
                const std::int64_t* row, const Entry (&table)[N]) {
  for (const Entry& e : table)
    out << prefix << e.name << ' '
        << row[e.id] - (e.minus >= 0 ? row[e.minus] : 0) << '\n';
}

}  // namespace

TelemetryCounters::TelemetryCounters(std::pmr::memory_resource* mr)
    : vc_index_(mr), router_(mr), link_(mr), vc_(mr) {}

void TelemetryCounters::configure(int routers,
                                  const std::vector<int>& link_vcs) {
  routers_ = routers;
  links_ = static_cast<int>(link_vcs.size());
  vc_index_.assign(link_vcs.size() + 1, 0);
  for (std::size_t l = 0; l < link_vcs.size(); ++l)
    vc_index_[l + 1] = vc_index_[l] + link_vcs[l];
  router_.values.assign(router_.at(routers_), 0);
  link_.values.assign(link_.at(links_), 0);
  vc_.values.assign(vc_.at(vc_index_.back()), 0);
  net_.fill(0);
}

void TelemetryCounters::add(const TelemetryCounters& other) {
  for (int r = 0; r < other.routers_; ++r) router_.add(r, other.router_[r]);
  for (int l = 0; l < other.links_; ++l) {
    link_.add(l, other.link_[l]);
    for (int v = 0; v < other.vcs_of_link(l); ++v)
      vc_.add(lane(l, v), other.vc_[other.lane(l, v)]);
  }
  for (std::size_t k = 0; k < net_.size(); ++k) net_[k] += other.net_[k];
}

void TelemetryCounters::merge(const TelemetryCounters& other) {
  if (!other.configured()) return;
  if (routers_ != other.routers_ || vc_index_ != other.vc_index_) {
    // An unconfigured side or differently-shaped networks (a sweep mixing
    // arrangements or scales): widen to the union shape, which no merge
    // order changes, so addition happens per (router, link, vc) id. The
    // enabled flag stays local: an aggregate is never an update target.
    const auto vcs = [](const TelemetryCounters& t, int l) {
      return l < t.links_ ? t.vcs_of_link(l) : 0;
    };
    std::vector<int> link_vcs;
    for (int l = 0; l < std::max(links_, other.links_); ++l)
      link_vcs.push_back(std::max(vcs(*this, l), vcs(other, l)));
    TelemetryCounters wider(vc_index_.get_allocator().resource());
    wider.configure(std::max(routers_, other.routers_), link_vcs);
    wider.enabled_ = enabled_;
    wider.add(*this);
    *this = std::move(wider);
  }
  add(other);
}

std::string TelemetryCounters::render() const {
  std::ostringstream out;
  out << "telemetry v1 routers=" << routers_ << " links=" << links_ << '\n';
  render_row(out, "net.", net_.data(), kNetTable);
  for (int r = 0; r < routers_; ++r)
    render_row(out, "router." + std::to_string(r) + '.', router_[r],
               kRouterTable);
  for (int l = 0; l < links_; ++l) {
    const std::string link = "link." + std::to_string(l) + '.';
    render_row(out, link, link_[l], kLinkTable);
    for (int v = 0; v < vcs_of_link(l); ++v)
      render_row(out, link + "vc." + std::to_string(v) + '.',
                 vc_[lane(l, v)], kVcTable);
  }
  return out.str();
}

}  // namespace flexnet
