// bench_trajectory: folds one or more JsonReport files (the --json output
// of the figure benches) into a cumulative BENCH_sweeps.json perf
// trajectory, so CI can track sweep wall-clock and saturation throughput
// across commits.
//
//   bench_trajectory --out BENCH_sweeps.json [--label L] report.json...
//
// Each input report contributes one trajectory entry: the report's figure /
// config / worker+seed meta, total wall-clock seconds, simulated job count
// (points x seeds), and per-sweep {title, wall_seconds, saturation and
// maximum accepted load per series}. Microbench reports (bench_hot_path
// --json: a "microbench" case array instead of "sweeps") fold into an
// entry carrying each case's cycles/sec, so the engine's raw step
// throughput is tracked commit over commit alongside the sweeps. When
// --out already exists its entries are preserved and the new ones appended
// (the "cumulative" part: CI runs download the previous artifact and
// re-run this tool); a corrupt or foreign --out file is an error, never
// overwritten silently. An input report that is unreadable, empty,
// half-written, or partial (a single shard's report or an incomplete
// merge — their zeroed slots would poison the saturation numbers) is
// skipped with a warning so one bad report never wedges or corrupts the
// fold.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "runner/json_parser.hpp"

using flexnet::JsonValue;

namespace {

constexpr int kFormatVersion = 1;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Copies a meta field (any scalar type) from the report into the entry.
void copy_meta(const JsonValue& report, const char* key, JsonValue* entry) {
  if (const JsonValue* meta = report.find("meta")) {
    if (const JsonValue* v = meta->find(key)) entry->set(key, *v);
  }
}

/// One trajectory entry summarizing a whole report file.
JsonValue summarize_report(const JsonValue& report, const std::string& source,
                           const std::string& label) {
  JsonValue entry = JsonValue::make_object();
  if (!label.empty()) entry.set("label", JsonValue::make_string(label));
  entry.set("source", JsonValue::make_string(source));
  copy_meta(report, "figure", &entry);
  copy_meta(report, "config", &entry);
  copy_meta(report, "nodes", &entry);
  copy_meta(report, "jobs", &entry);
  copy_meta(report, "seeds", &entry);

  double seeds = 1.0;
  if (const JsonValue* meta = report.find("meta"))
    if (const JsonValue* s = meta->find("seeds")) seeds = s->number_or(1.0);

  double wall_total = 0.0;
  double sim_jobs_total = 0.0;
  JsonValue sweeps_out = JsonValue::make_array();
  if (const JsonValue* sweeps = report.find("sweeps")) {
    for (const JsonValue& sweep : sweeps->array) {
      JsonValue sweep_out = JsonValue::make_object();
      if (const JsonValue* title = sweep.find("title"))
        sweep_out.set("title", *title);
      const double wall =
          sweep.find("wall_seconds") ? sweep.find("wall_seconds")->number_or(0.0)
                                     : 0.0;
      wall_total += wall;
      sweep_out.set("wall_seconds", JsonValue::make_number(wall));

      double points = 0.0;
      JsonValue series_out = JsonValue::make_array();
      if (const JsonValue* series = sweep.find("series")) {
        for (const JsonValue& s : series->array) {
          JsonValue s_out = JsonValue::make_object();
          if (const JsonValue* l = s.find("label")) s_out.set("label", *l);
          if (const JsonValue* m = s.find("max_accepted"))
            s_out.set("max_accepted", *m);
          // Saturation throughput: accepted load at the highest offered
          // load of the series, zero when that point deadlocked (the same
          // rule as SweepResult::saturation_accepted).
          const JsonValue* rows = s.find("rows");
          if (rows != nullptr && !rows->array.empty()) {
            points += static_cast<double>(rows->array.size());
            const JsonValue& last = rows->array.back();
            const JsonValue* deadlock = last.find("deadlock");
            const bool dead = deadlock != nullptr && deadlock->type ==
                                  JsonValue::Type::Bool && deadlock->boolean;
            const JsonValue* accepted = last.find("accepted");
            s_out.set("saturation_accepted",
                      JsonValue::make_number(
                          dead || accepted == nullptr
                              ? 0.0
                              : accepted->number_or(0.0)));
          }
          series_out.array.push_back(std::move(s_out));
        }
      }
      sweep_out.set("points", JsonValue::make_number(points));
      sim_jobs_total += points * seeds;
      sweep_out.set("series", std::move(series_out));
      sweeps_out.array.push_back(std::move(sweep_out));
    }
  }
  entry.set("wall_seconds", JsonValue::make_number(wall_total));
  entry.set("sim_jobs", JsonValue::make_number(sim_jobs_total));
  entry.set("sweeps", std::move(sweeps_out));
  return entry;
}

/// One trajectory entry summarizing a microbench report (bench_hot_path):
/// per-case cycles/sec plus the geomean, with wall-clock and case count in
/// the same wall_seconds/sim_jobs slots the sweep entries use.
JsonValue summarize_microbench(const JsonValue& report,
                               const std::string& source,
                               const std::string& label) {
  JsonValue entry = JsonValue::make_object();
  if (!label.empty()) entry.set("label", JsonValue::make_string(label));
  entry.set("source", JsonValue::make_string(source));
  copy_meta(report, "kind", &entry);
  copy_meta(report, "config", &entry);

  double wall_total = 0.0;
  double cases = 0.0;
  JsonValue cases_out = JsonValue::make_array();
  if (const JsonValue* bench = report.find("microbench")) {
    for (const JsonValue& c : bench->array) {
      JsonValue c_out = JsonValue::make_object();
      // consumed_packets/grants together are the cross-core checksum
      // bench_hot_path documents — carry both into the trajectory.
      for (const char* key :
           {"name", "cycles", "wall_seconds", "cycles_per_sec",
            "cycles_per_sec_telemetry", "telemetry_overhead",
            "consumed_packets", "grants", "re_requests",
            "re_requests_per_grant"})
        if (const JsonValue* v = c.find(key)) c_out.set(key, *v);
      if (const JsonValue* wall = c.find("wall_seconds"))
        wall_total += wall->number_or(0.0);
      cases += 1.0;
      cases_out.array.push_back(std::move(c_out));
    }
  }
  if (const JsonValue* geomean = report.find("geomean_cycles_per_sec"))
    entry.set("geomean_cycles_per_sec", *geomean);
  if (const JsonValue* ratio = report.find("geomean_telemetry_overhead"))
    entry.set("geomean_telemetry_overhead", *ratio);
  entry.set("wall_seconds", JsonValue::make_number(wall_total));
  entry.set("sim_jobs", JsonValue::make_number(cases));
  entry.set("microbench", std::move(cases_out));
  return entry;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out BENCH_sweeps.json [--label L] report.json...\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string label;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (out_path.empty() || inputs.empty()) return usage(argv[0]);

  // Load (or start) the cumulative trajectory document.
  JsonValue doc = JsonValue::make_object();
  doc.set("version", JsonValue::make_number(kFormatVersion));
  doc.set("entries", JsonValue::make_array());
  std::string existing;
  if (read_file(out_path, &existing)) {
    std::string error;
    JsonValue parsed;
    if (!json_parse(existing, &parsed, &error) || !parsed.is_object() ||
        parsed.find("entries") == nullptr ||
        !parsed.find("entries")->is_array()) {
      std::fprintf(stderr,
                   "error: %s exists but is not a bench trajectory (%s)\n",
                   out_path.c_str(),
                   error.empty() ? "missing entries array" : error.c_str());
      return 1;
    }
    const JsonValue* version = parsed.find("version");
    if (version == nullptr ||
        version->number_or(0.0) != static_cast<double>(kFormatVersion)) {
      std::fprintf(stderr,
                   "error: %s is a version %g trajectory; this tool writes "
                   "version %d — refusing to mix formats\n",
                   out_path.c_str(),
                   version == nullptr ? 0.0 : version->number_or(0.0),
                   kFormatVersion);
      return 1;
    }
    doc = parsed;
  }
  JsonValue* entries = nullptr;
  for (auto& kv : doc.object)
    if (kv.first == "entries") entries = &kv.second;

  // An unreadable, empty, or half-written report (a crashed shard or
  // interrupted bench) is skipped with a warning rather than wedging the
  // whole trajectory fold — the surviving reports still land in --out.
  std::size_t skipped = 0;
  const auto skip = [&](const std::string& input, const std::string& why) {
    flexnet::log_warn("skipping report " + input + ": " + why);
    ++skipped;
  };
  for (const std::string& input : inputs) {
    std::string text;
    if (!read_file(input, &text)) {
      skip(input, "cannot read file");
      continue;
    }
    if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
      skip(input, "empty report");
      continue;
    }
    std::string error;
    JsonValue report;
    if (!json_parse(text, &report, &error)) {
      skip(input, "invalid JSON (" + error + ")");
      continue;
    }
    const bool is_microbench =
        report.is_object() && report.find("microbench") != nullptr;
    if (!report.is_object() ||
        (report.find("sweeps") == nullptr && !is_microbench)) {
      skip(input, "not a sweep or microbench report (no 'sweeps' or "
                  "'microbench')");
      continue;
    }
    if (is_microbench) {
      entries->array.push_back(summarize_microbench(report, input, label));
      continue;
    }
    // Partial reports self-identify: a single shard's report (meta.shard)
    // or a merge over an incomplete shard set (meta.missing_jobs) carries
    // zeroed slots that would silently poison the saturation trajectory.
    if (const JsonValue* meta = report.find("meta")) {
      if (const JsonValue* shard = meta->find("shard")) {
        skip(input, "partial report of shard " + shard->string_or("?") +
                        " — merge the shard journals with flexnet_merge "
                        "and fold the merged report instead");
        continue;
      }
      if (meta->find("missing_jobs") != nullptr) {
        skip(input, "incomplete merge (meta.missing_jobs) — re-run the "
                    "missing shard(s) and merge again");
        continue;
      }
    }
    entries->array.push_back(summarize_report(report, input, label));
  }
  if (skipped == inputs.size()) {
    // One bad report must not wedge the fold, but *zero* usable reports
    // is a failed fold — leave --out untouched and say so.
    std::fprintf(stderr,
                 "error: all %zu input report(s) were skipped; %s left "
                 "unchanged\n",
                 skipped, out_path.c_str());
    return 1;
  }

  const std::string rendered = json_serialize(doc, 0) + "\n";
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out.write(rendered.data(),
                 static_cast<std::streamsize>(rendered.size()))) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: %zu entr%s total (+%zu, %zu skipped)\n",
               out_path.c_str(), entries->array.size(),
               entries->array.size() == 1 ? "y" : "ies",
               inputs.size() - skipped, skipped);
  return 0;
}
