#include "scenario/suite.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "runner/checkpoint.hpp"
#include "runner/json_parser.hpp"
#include "runner/json_report.hpp"
#include "scenario/registry.hpp"
#include "sim/config.hpp"

namespace flexnet {
namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& msg) {
  throw SuiteError(origin + ": " + msg);
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i)
    out += (i == 0 ? "" : ", ") + names[i];
  return out;
}

/// Renders a JSON scalar as the string SimConfig::apply would have seen on
/// a command line ("vcs": "4/2" / "load": 0.7 / "reactive": true become
/// vcs=4/2 / load=0.7 / reactive=true) and checks it as apply() will,
/// so a suite rejects exactly the values a command line would ("speedup":
/// 1.5 or "1.5", "reactive": "maybe"). A JSON type that does not fit the
/// key's kind (topology=3, reactive=0.5, load=true) fails as well.
std::string render_override(const std::string& key, const JsonValue& v,
                            const std::string& origin,
                            const std::string& context) {
  const SimConfig::KeyKind kind = SimConfig::key_kind(key);
  std::string text;
  switch (v.type) {
    case JsonValue::Type::String:
      text = v.string;
      break;
    case JsonValue::Type::Number:
      if (kind == SimConfig::KeyKind::kString)
        fail(origin, context + ": takes a string value");
      if (kind == SimConfig::KeyKind::kBool)
        fail(origin, context + ": takes true or false");
      text = json_number(v.number);
      break;
    case JsonValue::Type::Bool:
      if (kind != SimConfig::KeyKind::kBool)
        fail(origin, context + ": does not take a boolean");
      text = v.boolean ? "true" : "false";
      break;
    default:
      fail(origin, context + ": values must be strings, numbers, or booleans");
  }
  try {
    SimConfig{}.set(key, text);
  } catch (const std::invalid_argument& e) {
    fail(origin, context + ": " + e.what());
  }
  return text;
}

/// Builds Options from a JSON object of overrides, rejecting keys
/// SimConfig::apply would silently ignore.
Options parse_overrides(const JsonValue& obj, const std::string& origin,
                        const std::string& context) {
  if (!obj.is_object()) fail(origin, context + ": must be a JSON object");
  const auto& known = SimConfig::known_keys();
  Options out;
  for (const auto& [key, value] : obj.object) {
    if (std::find(known.begin(), known.end(), key) == known.end())
      fail(origin, context + ": unknown config key '" + key +
                       "' — known keys: " + known_config_keys_list());
    out.set(key,
            render_override(key, value, origin,
                            context + ": key '" + key + "'"));
  }
  return out;
}

/// The value of a JSON number that is a whole number in [1, INT_MAX], or 0
/// for anything else. The range is checked on the double: casting an
/// out-of-range double (1e10, -1e10) to int is undefined behaviour.
int positive_int(const JsonValue& v) {
  if (v.type != JsonValue::Type::Number) return 0;
  const double d = v.number;
  if (!(d >= 1.0 && d <= std::numeric_limits<int>::max()) ||
      d != std::floor(d))
    return 0;
  return static_cast<int>(d);
}

std::vector<double> parse_loads(const JsonValue& v, const std::string& origin) {
  std::vector<double> loads;
  if (v.is_array()) {
    for (const auto& item : v.array) {
      if (item.type != JsonValue::Type::Number)
        fail(origin, "'loads' entries must be numbers");
      loads.push_back(item.number);
    }
  } else if (v.is_object()) {
    for (const auto& [key, value] : v.object) {
      (void)value;
      if (key != "from" && key != "to" && key != "count")
        fail(origin, "'loads' range takes exactly {from, to, count}, got '" +
                         key + "'");
    }
    const JsonValue* from = v.find("from");
    const JsonValue* to = v.find("to");
    const JsonValue* count = v.find("count");
    if (from == nullptr || to == nullptr || count == nullptr)
      fail(origin, "'loads' range needs all of {from, to, count}");
    if (from->type != JsonValue::Type::Number ||
        to->type != JsonValue::Type::Number ||
        count->type != JsonValue::Type::Number)
      fail(origin, "'loads' range values must be numbers");
    const int n = positive_int(*count);
    if (n == 0) fail(origin, "'loads' count must be a positive integer");
    if (from->number_or(0) > to->number_or(0))
      fail(origin, "'loads' range needs from <= to");
    loads = load_points(from->number_or(0), to->number_or(0), n);
  } else {
    fail(origin, "'loads' must be an array of numbers or {from, to, count}");
  }
  if (loads.empty()) fail(origin, "'loads' must not be empty");
  for (double l : loads)
    if (!(l > 0.0)) fail(origin, "loads must be > 0");
  return loads;
}

}  // namespace

const std::string& known_config_keys_list() {
  static const std::string* list =
      new std::string(join(SimConfig::known_keys()));
  return *list;
}

SuiteSpec SuiteSpec::parse(const std::string& json_text,
                           const std::string& origin) {
  JsonValue doc;
  std::string error;
  if (!json_parse(json_text, &doc, &error))
    fail(origin, "invalid JSON: " + error);
  if (!doc.is_object()) fail(origin, "top level must be a JSON object");

  static const std::set<std::string> kTopKeys = {
      "title", "description", "base", "series", "loads", "seeds"};
  for (const auto& [key, value] : doc.object) {
    (void)value;
    if (kTopKeys.count(key) == 0)
      fail(origin, "unknown top-level key '" + key +
                       "' — expected one of: title, description, base, "
                       "series, loads, seeds");
  }

  SuiteSpec spec;
  const JsonValue* title = doc.find("title");
  if (title == nullptr || title->type != JsonValue::Type::String ||
      title->string.empty())
    fail(origin, "'title' (non-empty string) is required");
  spec.title = title->string;
  if (const JsonValue* desc = doc.find("description")) {
    if (desc->type != JsonValue::Type::String)
      fail(origin, "'description' must be a string");
    spec.description = desc->string;
  }

  if (const JsonValue* base = doc.find("base"))
    spec.base = parse_overrides(*base, origin, "base");

  const JsonValue* series = doc.find("series");
  if (series == nullptr || !series->is_array() || series->array.empty())
    fail(origin, "'series' (non-empty array) is required");
  std::set<std::string> labels;
  for (const auto& item : series->array) {
    if (!item.is_object()) fail(origin, "each series must be an object");
    for (const auto& [key, value] : item.object) {
      (void)value;
      if (key != "label" && key != "overrides")
        fail(origin, "series take exactly {label, overrides}, got '" + key +
                         "'");
    }
    const JsonValue* label = item.find("label");
    if (label == nullptr || label->type != JsonValue::Type::String ||
        label->string.empty())
      fail(origin, "every series needs a non-empty string 'label'");
    if (!labels.insert(label->string).second)
      fail(origin, "duplicate series label '" + label->string + "'");
    SuiteSeries s;
    s.label = label->string;
    if (const JsonValue* overrides = item.find("overrides"))
      s.overrides = parse_overrides(*overrides, origin,
                                    "series '" + s.label + "'");
    spec.series.push_back(std::move(s));
  }

  const JsonValue* loads = doc.find("loads");
  if (loads == nullptr) fail(origin, "'loads' is required");
  spec.loads = parse_loads(*loads, origin);

  if (const JsonValue* seeds = doc.find("seeds")) {
    spec.seeds = positive_int(*seeds);
    if (spec.seeds == 0) fail(origin, "'seeds' must be a positive integer");
  }
  return spec;
}

SuiteSpec SuiteSpec::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SuiteError(path + ": cannot open suite file");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str(), path);
}

SuiteSpec SuiteSpec::load_shipped(const std::string& filename) {
#ifdef FLEXNET_SUITE_DIR
  return load(std::string(FLEXNET_SUITE_DIR) + "/" + filename);
#else
  return load("examples/suites/" + filename);
#endif
}

MaterializedSuite materialize_for_run(const std::string& path,
                                      const Options* extra) {
  MaterializedSuite out;
  out.spec = SuiteSpec::load(path);

  out.grid = out.spec.materialize(SimConfig{}, extra);
  out.seeds = out.spec.seeds_or(1);
  out.fingerprint = grid_fingerprint(out.grid, out.spec.loads, out.seeds);
  return out;
}

std::vector<ExperimentSeries> SuiteSpec::materialize(
    const SimConfig& defaults, const Options* extra) const {
  SimConfig common = defaults;
  common.apply(base);
  if (extra != nullptr) common.apply(*extra);
  std::vector<ExperimentSeries> out;
  out.reserve(series.size());
  for (const SuiteSeries& s : series) {
    SimConfig cfg = common;
    cfg.apply(s.overrides);
    try {
      validate_config(cfg);
    } catch (const std::exception& e) {
      throw SuiteError("series '" + s.label + "': " + e.what());
    }
    out.push_back(ExperimentSeries{s.label, cfg});
  }
  return out;
}

}  // namespace flexnet
