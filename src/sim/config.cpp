#include "sim/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace flexnet {
namespace {

// ---------------------------------------------------------------------------
// Value codecs. A field's C++ type decides its key's kind, how apply()
// parses an override and how canonical() prints the field.

template <typename T>
constexpr SimConfig::KeyKind kind_of() {
  if constexpr (std::is_same_v<T, std::string>) {
    return SimConfig::KeyKind::kString;
  } else if constexpr (std::is_same_v<T, bool>) {
    return SimConfig::KeyKind::kBool;
  } else if constexpr (std::is_floating_point_v<T>) {
    return SimConfig::KeyKind::kDouble;
  } else {
    static_assert(std::is_integral_v<T>, "config fields are string/bool/"
                                         "floating/integral");
    return SimConfig::KeyKind::kInt;
  }
}

[[noreturn]] void bad_value(const char* key, const std::string& value,
                            const std::string& expected) {
  throw std::invalid_argument("config key '" + std::string(key) + "' " +
                              expected + ", got '" + value + "'");
}

/// True when strto* consumed all of `value` and it did not start with
/// whitespace (which strto* would skip silently).
bool fully_parsed(const std::string& value, const char* end) {
  return !value.empty() &&
         std::isspace(static_cast<unsigned char>(value[0])) == 0 &&
         end == value.c_str() + value.size();
}

/// Parses `value` strictly as a T: the whole string must parse, and an
/// integer must fit T. Throws std::invalid_argument naming key and value.
template <typename T>
T parse_value(const char* key, const std::string& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (value == "true" || value == "1" || value == "yes" || value == "on")
      return true;
    if (value == "false" || value == "0" || value == "no" || value == "off")
      return false;
    bad_value(key, value, "takes true/false/1/0/yes/no/on/off");
  } else if constexpr (std::is_floating_point_v<T>) {
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (!fully_parsed(value, end)) bad_value(key, value, "must be a number");
    return parsed;
  } else {
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (!fully_parsed(value, end)) bad_value(key, value, "must be an integer");
    // The range T can hold, clipped to what strtoll can return.
    using Limits = std::numeric_limits<T>;
    constexpr long long lo = static_cast<long long>(Limits::min());
    constexpr long long hi =
        static_cast<unsigned long long>(Limits::max()) >
                static_cast<unsigned long long>(
                    std::numeric_limits<long long>::max())
            ? std::numeric_limits<long long>::max()
            : static_cast<long long>(Limits::max());
    if (errno != 0 || parsed < lo || parsed > hi)
      bad_value(key, value,
                "must be an integer in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
    return static_cast<T>(parsed);
  }
}

/// canonical()'s rendering: doubles exactly (hexfloat), bools as 0/1.
template <typename T>
void print_value(const T& v, std::string* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out += v;
  } else if constexpr (std::is_same_v<T, bool>) {
    *out += v ? '1' : '0';
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    *out += buf;
  } else {
    *out += std::to_string(v);
  }
}

// ---------------------------------------------------------------------------
// The key table: one entry per override key, in application order.

struct KeySpec {
  const char* key;
  SimConfig::KeyKind kind;
  /// Parses `value` strictly as `kind` and stores it.
  void (*set)(SimConfig&, const char* key, const std::string& value);
  /// Appends the field's value; null for keys with no field of their own.
  void (*print)(const SimConfig&, std::string* out);
};

/// The field a member-pointer path (`&SimConfig::load`, or
/// `&SimConfig::dragonfly, &DragonflyParams::p`) names inside `c`.
template <auto... Path, typename Config>
constexpr auto& follow(Config& c) {
  return (c .* ... .* Path);
}

/// The table entry of the field at `Path`, overridden by `key`.
template <auto... Path>
constexpr KeySpec field(const char* key) {
  using T = std::remove_reference_t<decltype(follow<Path...>(
      std::declval<SimConfig&>()))>;
  return KeySpec{
      key, kind_of<T>(),
      [](SimConfig& c, const char* k, const std::string& value) {
        follow<Path...>(c) = parse_value<T>(k, value);
      },
      [](const SimConfig& c, std::string* out) {
        print_value(follow<Path...>(c), out);
      }};
}

constexpr KeySpec kKeySpecs[] = {
    field<&SimConfig::topology>("topology"),
    field<&SimConfig::dragonfly, &DragonflyParams::p>("df_p"),
    field<&SimConfig::dragonfly, &DragonflyParams::a>("df_a"),
    field<&SimConfig::dragonfly, &DragonflyParams::h>("df_h"),
    // After df_*: paper_scale=true replaces the whole dragonfly geometry,
    // which the df_* entries already carry into canonical().
    {"paper_scale", SimConfig::KeyKind::kBool,
     [](SimConfig& c, const char* key, const std::string& value) {
       if (parse_value<bool>(key, value))
         c.dragonfly = DragonflyParams::paper_scale();
     },
     nullptr},
    field<&SimConfig::slimfly, &SlimFlyParams::p>("sf_p"),
    field<&SimConfig::slimfly, &SlimFlyParams::q>("sf_q"),
    field<&SimConfig::vcs>("vcs"),
    field<&SimConfig::policy>("policy"),
    field<&SimConfig::vc_selection>("vc_selection"),
    field<&SimConfig::local_buffer_per_vc>("local_buffer"),
    field<&SimConfig::global_buffer_per_vc>("global_buffer"),
    field<&SimConfig::injection_buffer_per_vc>("injection_buffer"),
    field<&SimConfig::output_buffer>("output_buffer"),
    field<&SimConfig::local_port_capacity>("local_port_capacity"),
    field<&SimConfig::global_port_capacity>("global_port_capacity"),
    field<&SimConfig::buffer_org>("buffer_org"),
    field<&SimConfig::damq_private_fraction>("damq_private_fraction"),
    field<&SimConfig::speedup>("speedup"),
    field<&SimConfig::alloc_iters>("alloc_iters"),
    field<&SimConfig::pipeline_latency>("pipeline_latency"),
    field<&SimConfig::injection_vcs>("injection_vcs"),
    field<&SimConfig::local_latency>("local_latency"),
    field<&SimConfig::global_latency>("global_latency"),
    field<&SimConfig::routing>("routing"),
    field<&SimConfig::pb_per_vc>("pb_per_vc"),
    field<&SimConfig::mincred>("mincred"),
    field<&SimConfig::adaptive_threshold>("threshold"),
    field<&SimConfig::flow_control>("flow_control"),
    field<&SimConfig::phits_per_packet>("phits_per_packet"),
    field<&SimConfig::buffer_mgmt>("buffer_mgmt"),
    field<&SimConfig::traffic>("traffic"),
    field<&SimConfig::reactive>("reactive"),
    field<&SimConfig::load>("load"),
    field<&SimConfig::burst_length>("burst_length"),
    field<&SimConfig::adversarial_offset>("adv_offset"),
    field<&SimConfig::reply_queue_capacity>("reply_queue"),
    field<&SimConfig::packet_size>("packet_size"),
    field<&SimConfig::sim_domains>("sim_domains"),
    field<&SimConfig::warmup>("warmup"),
    field<&SimConfig::measure>("measure"),
    field<&SimConfig::seed>("seed"),
    field<&SimConfig::watchdog>("watchdog"),
};

// Arity pin: this stops compiling when SimConfig gains or loses a field.
// A new field must get an entry in kKeySpecs above (add it to the table),
// its name here, and a bump of the key count below.
[[maybe_unused]] void pin_config_fields(const SimConfig& c) {
  [[maybe_unused]] const auto& [
      topology, dragonfly, slimfly, vcs, policy, vc_selection,
      local_buffer_per_vc, global_buffer_per_vc, injection_buffer_per_vc,
      output_buffer, local_port_capacity, global_port_capacity, buffer_org,
      damq_private_fraction, speedup, alloc_iters, pipeline_latency,
      injection_vcs, local_latency, global_latency, routing, pb_per_vc,
      mincred, adaptive_threshold, flow_control, phits_per_packet,
      buffer_mgmt, traffic, reactive, load, burst_length, adversarial_offset,
      reply_queue_capacity, packet_size, sim_domains, warmup, measure, seed,
      watchdog] = c;
  // 39 fields, 43 keys: the nested dragonfly/slimfly parameters take
  // one key each (3 + 2) and paper_scale has no field of its own.
  static_assert(std::size(kKeySpecs) == 43, "one kKeySpecs entry per key");
}

const KeySpec& spec_of(const std::string& key) {
  for (const KeySpec& spec : kKeySpecs)
    if (key == spec.key) return spec;
  throw std::invalid_argument("unknown config key '" + key + "'");
}

}  // namespace

void SimConfig::apply(const Options& o) {
  for (const KeySpec& spec : kKeySpecs)
    if (o.has(spec.key)) spec.set(*this, spec.key, o.get(spec.key, ""));
}

void SimConfig::set(const std::string& key, const std::string& value) {
  const KeySpec& spec = spec_of(key);
  spec.set(*this, spec.key, value);
}

SimConfig::KeyKind SimConfig::key_kind(const std::string& key) {
  return spec_of(key).kind;
}

const std::vector<std::string>& SimConfig::known_keys() {
  static const std::vector<std::string>* keys = [] {
    auto* out = new std::vector<std::string>;
    for (const KeySpec& spec : kKeySpecs) out->emplace_back(spec.key);
    return out;
  }();
  return *keys;
}

std::string SimConfig::canonical() const {
  std::string out;
  for (const KeySpec& spec : kKeySpecs) {
    if (spec.print == nullptr) continue;
    out += spec.key;
    out += '=';
    spec.print(*this, &out);
    out += ';';
  }
  return out;
}

std::string SimConfig::summary() const {
  std::ostringstream out;
  out << topology << " vcs=" << vcs << " policy=" << policy
      << " org=" << buffer_org << " routing=" << routing;
  // Non-default flow control / buffer management only: default-mode
  // summaries (embedded in golden suite reports) stay byte-identical.
  if (flow_control != "packet") out << " fc=" << flow_control;
  if (buffer_mgmt != "credit") out << " bm=" << buffer_mgmt;
  out << " traffic=" << traffic << (reactive ? "+reactive" : "")
      << " load=" << load << " seed=" << seed;
  return out.str();
}

}  // namespace flexnet
