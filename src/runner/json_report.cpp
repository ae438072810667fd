#include "runner/json_report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <type_traits>

namespace flexnet {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void JsonReport::set_meta_rendered(const std::string& key,
                                   std::string rendered) {
  for (auto& m : meta_) {
    if (m.key == key) {
      m.rendered = std::move(rendered);
      return;
    }
  }
  meta_.push_back(MetaEntry{key, std::move(rendered)});
}

void JsonReport::set_meta(const std::string& key, const std::string& value) {
  set_meta_rendered(key, "\"" + json_escape(value) + "\"");
}

void JsonReport::set_meta(const std::string& key, std::int64_t value) {
  set_meta_rendered(key, std::to_string(value));
}

void JsonReport::set_meta(const std::string& key, double value) {
  set_meta_rendered(key, json_number(value));
}

void JsonReport::add_sweep(const std::string& title,
                           const std::vector<SweepResult>& sweeps,
                           double wall_seconds) {
  entries_.push_back(SweepEntry{title, wall_seconds, sweeps});
}

namespace {

std::string json_value(double v) { return json_number(v); }
std::string json_value(std::int64_t v) { return std::to_string(v); }
std::string json_value(bool v) { return v ? "true" : "false"; }

/// One report row: the load, then every kResultFields entry under its
/// JSON name — numeric fields in table order, then the flags.
void append_row(std::ostringstream& out, const SweepRow& row) {
  out << "{\"load\": " << json_number(row.load);
  for (const bool flags : {false, true}) {
    for_each_result_field([&](const auto& field) {
      const auto& v = row.result.*field.member;
      if (std::is_same_v<std::decay_t<decltype(v)>, bool> != flags) return;
      out << ", \"" << field.name << "\": " << json_value(v);
    });
  }
  out << "}";
}

}  // namespace

std::string JsonReport::to_json() const {
  std::ostringstream out;
  out << "{\n  \"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i) out << ", ";
    out << "\"" << json_escape(meta_[i].key) << "\": " << meta_[i].rendered;
  }
  out << "},\n  \"sweeps\": [";
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    const SweepEntry& entry = entries_[e];
    if (e) out << ",";
    out << "\n    {\"title\": \"" << json_escape(entry.title) << "\", "
        << "\"wall_seconds\": " << json_number(entry.wall_seconds)
        << ", \"series\": [";
    for (std::size_t s = 0; s < entry.sweeps.size(); ++s) {
      const SweepResult& sweep = entry.sweeps[s];
      if (s) out << ",";
      out << "\n      {\"label\": \"" << json_escape(sweep.label)
          << "\", \"max_accepted\": " << json_number(sweep.max_accepted())
          << ", \"rows\": [";
      for (std::size_t r = 0; r < sweep.rows.size(); ++r) {
        if (r) out << ",";
        out << "\n        ";
        append_row(out, sweep.rows[r]);
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

bool JsonReport::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace flexnet
