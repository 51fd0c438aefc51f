// Service runtime under load: M concurrent simulated chats (mixed
// legitimate / reenactment-attacker respondents, one deterministic seed per
// session) driven through the sharded SessionManager + FrameScheduler, at
// 1/2/4/N worker threads. Reports sessions/sec, frame throughput and
// push-to-verdict tail latency per thread count, and — like
// bench_parallel_scaling — *verifies* rather than assumes determinism:
// every session's window-verdict sequence (class and LOF score) must be
// bit-identical across all thread counts, or the bench exits nonzero.
//
//   ./bench_service_load                       # 500 sessions, 6 s chats
//   ./bench_service_load 500 3 3 50            # sessions, duration_s,
//                                              # window_s, attacker %
//   ./bench_service_load --trace-out load.trace.json   # + Chrome trace and
//                                              # per-stage timing JSON
//                                              # (or LUMICHAT_TRACE=path)
//   ./bench_service_load --trace-selftest      # observability gate: traced
//                                              # vs untraced 50-session runs
//                                              # must agree bit-for-bit, the
//                                              # trace must parse and nest
//   ./bench_service_load --telemetry-selftest  # PR-10 gate: wire-fed runs
//                                              # with stats polling + flight
//                                              # recorder + heartbeats (and a
//                                              # v1-client run) must match a
//                                              # telemetry-dark run verdict
//                                              # for verdict
//   ./bench_service_load --socket=8 10000 2 2 50   # wire-fed mode: drive the
//                                              # sessions as protocol bytes
//                                              # over 8 socketpairs through
//                                              # WireServer (synthetic 8x8
//                                              # chats); gates socket-vs-
//                                              # in-process verdict equality
//                                              # at reduced scale first
//   ./bench_service_load --json-out r.json     # machine-readable record of
//                                              # the measured run (either
//                                              # mode) -> BENCH_service_load
//   ./bench_service_load --socket=8 --listen /tmp/lumichat.sock 10000 2 2 50
//                                              # + a Unix-socket stats side
//                                              # door: poll the measured run
//                                              # live with lumichat_stat
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/explain.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/load_generator.hpp"
#include "model/registry.hpp"
#include "wire/socket_load.hpp"

namespace {

bool same_verdicts(const std::vector<lumichat::service::SessionResult>& a,
                   const std::vector<lumichat::service::SessionResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].truth_attacker != b[i].truth_attacker ||
        a[i].window_verdicts != b[i].window_verdicts ||
        a[i].lof_scores != b[i].lof_scores ||
        a[i].final_verdict.is_attacker != b[i].final_verdict.is_attacker ||
        a[i].pending_samples_dropped != b[i].pending_samples_dropped) {
      return false;
    }
  }
  return true;
}

/// Fits the shared LOF model every session attaches (window-length clips so
/// the model sees the feature distribution it will score) and publishes it
/// through a registry as version 1.
std::shared_ptr<lumichat::model::ModelRegistry> train_models(
    const lumichat::eval::SimulationProfile& profile, double window_s) {
  using namespace lumichat;
  const eval::DatasetBuilder data(profile);
  const auto pop = eval::make_population();
  common::ThreadPool setup_pool;  // LUMICHAT_THREADS or hardware width
  std::printf("[setup] fitting shared model on 16 legitimate clips "
              "(window %.1fs, %zu threads)...\n",
              window_s, setup_pool.size());
  const auto train_features =
      eval::population_features(data, {&pop[9], 1}, eval::Role::kLegitimate,
                                16, 0.0, &setup_pool);

  const core::DetectorConfig detector = profile.detector_config();
  auto models = std::make_shared<model::ModelRegistry>();
  models->publish(train_features[0], detector.lof_neighbors,
                  detector.lof_threshold);
  return models;
}

std::vector<std::string> sorted_lines(
    const std::vector<lumichat::obs::RoundExplanation>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const auto& r : records) lines.push_back(r.to_json());
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// The bench-smoke observability gate: one 50-session load run untraced and
/// one fully traced (tracer + explanation sink + registry). Verdicts and
/// explanation records must match bit-for-bit, the Chrome trace must be
/// well-formed JSON with well-nested spans covering every pipeline stage.
int run_trace_selftest() {
  using namespace lumichat;
  bench::header("Service load: traced-vs-untraced observability selftest");

  const double window_s = 2.0;
  eval::SimulationProfile profile;
  profile.clip_duration_s = window_s;
  core::StreamingConfig streaming;
  streaming.detector = profile.detector_config();
  streaming.window_s = window_s;
  const auto models = train_models(profile, window_s);

  service::LoadSpec load;
  load.n_sessions = 50;
  load.duration_s = 2.0;
  load.sample_rate_hz = profile.sample_rate_hz;
  load.warmup_s = 1.0;
  load.attacker_fraction = 0.5;
  load.ticks_per_pump = 2;
  load.full_chat = true;

  service::ServiceConfig service_cfg;
  service_cfg.n_shards = 8;
  if (service_cfg.max_sessions == 0) {
    service_cfg.max_sessions = service::default_service_capacity();
  }

  common::ThreadPool pool;
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  // Reference run: tracing OFF, explanations collected.
  obs::CollectingExplanationSink plain_sink;
  const service::LoadReport plain = service::run_load(
      load, service_cfg, streaming, models, &plain_sink, &pool);

  // Traced run: tracer installed, fresh sink, registry attached.
  obs::Tracer tracer;
  obs::CollectingExplanationSink traced_sink;
  obs::MetricsRegistry registry;
  tracer.install();
  const service::LoadReport traced = service::run_load(
      load, service_cfg, streaming, models, &traced_sink, &pool, &registry);
  obs::Tracer::uninstall();

  check(same_verdicts(plain.sessions, traced.sessions),
        "verdict sequences bit-identical with tracing on vs off");

  const std::vector<std::string> plain_lines = sorted_lines(plain_sink.records());
  const std::vector<std::string> traced_lines =
      sorted_lines(traced_sink.records());
  check(!plain_lines.empty(), "explanation records were emitted");
  check(plain_lines == traced_lines,
        "RoundExplanation streams (z1..z4, LOF, votes) bit-identical");

  std::size_t windows = 0;
  for (const auto& s : traced.sessions) windows += s.verdicts.size();
  check(traced_sink.size() == windows,
        "one explanation per completed window");

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  check(!spans.empty(), "tracer captured spans");
  check(obs::spans_well_nested(spans), "span nesting well-formed (per "
                                       "thread, on the logical clock)");

  const std::string chrome = tracer.chrome_trace_json();
  check(obs::json_well_formed(chrome), "Chrome trace JSON parses");
  check(obs::json_well_formed(tracer.stage_summary_json()),
        "stage summary JSON parses");
  check(obs::json_well_formed(registry.to_json()),
        "metrics-registry JSON parses");

  const char* expected[] = {"chat.tick",  "service.feed",  "service.pump",
                            "service.drain", "stream.window", "pre.filter",
                            "pre.change_detect", "features.extract",
                            "lof.score", "vote.majority", "load.build_chats"};
  std::set<std::string> seen;
  for (const obs::SpanRecord& s : spans) seen.insert(s.name);
  for (const char* name : expected) {
    std::string what = "trace contains spans for stage '";
    what += name;
    what += "'";
    check(seen.count(name) != 0, what.c_str());
  }

  check(registry.counter("scheduler.pumps").value() > 0,
        "registry counted scheduler pumps");
  check(registry.counter("load.frames_fed").value() > 0,
        "registry counted frames fed");

  std::printf("\n[spans] %zu captured, %llu dropped at the ring bound\n",
              spans.size(),
              static_cast<unsigned long long>(tracer.spans_dropped()));
  std::printf("[registry] %s\n", registry.to_json().c_str());
  if (failures > 0) {
    std::fprintf(stderr, "\n%d observability check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall observability checks passed\n");
  return 0;
}

/// Like same_verdicts but id-blind: socket sessions get shard-pinned ids
/// from the routed range while run_load's are sequential, so only the
/// verdict substance is compared (both reports are in chat-ordinal order).
bool equivalent_verdicts(const std::vector<lumichat::service::SessionResult>& a,
                         const std::vector<lumichat::service::SessionResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].truth_attacker != b[i].truth_attacker ||
        a[i].window_verdicts != b[i].window_verdicts ||
        a[i].lof_scores != b[i].lof_scores ||
        a[i].final_verdict.is_attacker != b[i].final_verdict.is_attacker ||
        a[i].pending_samples_dropped != b[i].pending_samples_dropped) {
      return false;
    }
  }
  return true;
}

void append_kv(std::string& json, const char* key, double v) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, v);
  json += buf;
}

/// One mode's machine-readable record (the value under "in_process" or
/// "socket" in the checked-in bench/BENCH_service_load.json).
std::string report_record(const lumichat::service::LoadReport& report,
                          std::size_t n_sessions, double duration_s,
                          double window_s, double attacker_pct) {
  std::string json = "{\"n_sessions\":" + std::to_string(n_sessions) + ',';
  append_kv(json, "duration_s", duration_s);
  json += ',';
  append_kv(json, "window_s", window_s);
  json += ',';
  append_kv(json, "attacker_pct", attacker_pct);
  json += ',';
  append_kv(json, "elapsed_s", report.elapsed_s);
  json += ',';
  append_kv(json, "frames_per_sec", report.frames_per_sec());
  json += ',';
  append_kv(json, "sessions_per_sec", report.sessions_per_sec());
  json += ',';
  append_kv(json, "p50_ms", report.metrics.latency_p50_s * 1e3);
  json += ',';
  append_kv(json, "p95_ms", report.metrics.latency_p95_s * 1e3);
  json += ',';
  append_kv(json, "p99_ms", report.metrics.latency_p99_s * 1e3);
  json += ',';
  append_kv(json, "p999_ms", report.metrics.latency_p999_s * 1e3);
  json += ',';
  append_kv(json, "accuracy", report.accuracy());
  json += ",\"frames_fed\":" + std::to_string(report.frames_fed);
  json += ",\"frames_dropped\":" +
          std::to_string(report.metrics.frames_dropped);
  json += ",\"sessions_rejected\":" +
          std::to_string(report.sessions_rejected);
  return json;  // caller closes the object (socket mode appends wire stats)
}

bool write_json_file(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

/// Wire-fed mode: the same deterministic session population as the
/// in-process sweep, but delivered as protocol bytes over socketpairs
/// through WireServer's arena pipeline. Before measuring, a reduced-scale
/// run is checked bit-identical against run_load (the equivalence the
/// integration tier proves at small scale, re-proven here on the bench's
/// own spec), and the measured connection count is checked against a
/// single-connection run. Exits nonzero on any divergence.
int run_socket_bench(std::size_t n_sessions, double duration_s,
                     double window_s, double attacker_pct,
                     std::size_t n_connections, const std::string& json_out,
                     const std::string& listen_path) {
  using namespace lumichat;
  bench::header("Service runtime: wire-fed socket ingestion load");

  eval::SimulationProfile profile;
  profile.clip_duration_s = window_s;
  core::StreamingConfig streaming;
  streaming.detector = profile.detector_config();
  streaming.window_s = window_s;
  const auto models = train_models(profile, window_s);

  service::LoadSpec load;
  load.n_sessions = n_sessions;
  load.duration_s = duration_s;
  load.sample_rate_hz = profile.sample_rate_hz;
  load.warmup_s = 1.0;
  load.attacker_fraction = attacker_pct / 100.0;
  load.ticks_per_pump = 2;
  // Synthetic 8x8 chats: one fixed frame geometry for the server's arena,
  // and per-frame cost low enough that the wire path itself is measured.
  load.full_chat = false;

  service::ServiceConfig service_cfg;
  service_cfg.n_shards = 32;
  // Explicit: the default capacity (4096) is below the 10k-session scale
  // this mode exists to demonstrate.
  service_cfg.max_sessions = n_sessions;

  std::printf("[setup] %zu sessions x %.1fs over %zu connections, %.0f%% "
              "attackers, synthetic 8x8 frames\n\n",
              n_sessions, duration_s, n_connections, attacker_pct);

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  // --- Equivalence gate (reduced scale) ----------------------------------
  {
    service::LoadSpec gate = load;
    gate.n_sessions = std::min<std::size_t>(n_sessions, 200);
    service::ServiceConfig gate_cfg = service_cfg;
    gate_cfg.max_sessions = gate.n_sessions;
    const service::LoadReport inproc =
        service::run_load(gate, gate_cfg, streaming, models, nullptr, nullptr);
    wire::SocketLoadOptions gate_opts;
    gate_opts.n_connections = n_connections;
    const service::LoadReport socketed = wire::run_socket_load(
        gate, gate_cfg, streaming, models, gate_opts);
    check(equivalent_verdicts(inproc.sessions, socketed.sessions),
          "socket verdicts bit-identical to in-process run_load");
    wire::SocketLoadOptions one_conn;
    one_conn.n_connections = 1;
    const service::LoadReport single = wire::run_socket_load(
        gate, gate_cfg, streaming, models, one_conn);
    check(equivalent_verdicts(single.sessions, socketed.sessions),
          "verdicts independent of connection count");
  }
  if (failures > 0) {
    std::fprintf(stderr, "\nequivalence gate FAILED — not measuring\n");
    return 1;
  }

  // --- Measured run ------------------------------------------------------
  obs::MetricsRegistry registry;
  common::ThreadPool pool;  // LUMICHAT_THREADS or hardware width
  wire::SocketLoadOptions options;
  options.n_connections = n_connections;
  options.listen_path = listen_path;  // side door for lumichat_stat
  if (!listen_path.empty()) {
    std::printf("[listen] stats side door on %s (poll with lumichat_stat)\n",
                listen_path.c_str());
  }
  const service::LoadReport report = wire::run_socket_load(
      load, service_cfg, streaming, models, options, &pool, &registry);

  bench::row("%-10s %-10s %-11s %-11s %-9s %-9s %-9s %-9s", "conns",
             "time (s)", "frames/s", "sessions/s", "p50 (ms)", "p95 (ms)",
             "p99 (ms)", "p99.9(ms)");
  bench::row("%-10zu %-10.2f %-11.0f %-11.1f %-9.2f %-9.2f %-9.2f %-9.2f",
             n_connections, report.elapsed_s, report.frames_per_sec(),
             report.sessions_per_sec(), report.metrics.latency_p50_s * 1e3,
             report.metrics.latency_p95_s * 1e3,
             report.metrics.latency_p99_s * 1e3,
             report.metrics.latency_p999_s * 1e3);
  std::printf("\n[accuracy] %.1f%% of %zu sessions classified correctly "
              "(%zu rejected at admission, %llu frames dropped)\n",
              100.0 * report.accuracy(), report.sessions.size(),
              report.sessions_rejected,
              static_cast<unsigned long long>(report.metrics.frames_dropped));
  std::printf("[registry] %s\n", registry.to_json().c_str());

  const std::uint64_t wire_frames =
      registry.counter("wire.frames_in").value();
  check(wire_frames == report.frames_fed,
        "every fed frame entered as wire bytes");
  check(report.metrics.windows_completed > 0, "windows completed");

  if (!json_out.empty()) {
    std::string json = "{\"socket\":";
    json += report_record(report, n_sessions, duration_s, window_s,
                          attacker_pct);
    json += ",\"n_connections\":" + std::to_string(n_connections);
    json += ",\"wire_frames_in\":" + std::to_string(wire_frames);
    json += ",\"wire_verdicts_out\":" +
            std::to_string(registry.counter("wire.verdicts_out").value());
    json += "}}";
    if (write_json_file(json_out, json)) {
      std::printf("[json] socket record -> %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write --json-out %s\n", json_out.c_str());
      ++failures;
    }
  }
  return failures > 0 ? 1 : 0;
}

/// The bench-smoke telemetry gate, extending the traced-vs-untraced
/// discipline to the telemetry surfaces: the same wire-fed spec runs dark
/// (no registry, recorder, heartbeats or stats polling) and fully lit
/// (registry + armed flight recorder + per-block heartbeat pings + periodic
/// in-band stats requests), alternating three times each, and every lit
/// run's per-session verdict sequences must be bit-identical to the dark
/// run's. A third run with v1 clients proves the legacy interop
/// path yields the same substance. The captured stats snapshot and the
/// auto-dumped flight JSONL must both parse and carry the expected series.
int run_telemetry_selftest() {
  using namespace lumichat;
  bench::header("Wire-fed load: telemetry-on vs telemetry-off selftest");

  const double window_s = 2.0;
  eval::SimulationProfile profile;
  profile.clip_duration_s = window_s;
  core::StreamingConfig streaming;
  streaming.detector = profile.detector_config();
  streaming.window_s = window_s;
  const auto models = train_models(profile, window_s);

  service::LoadSpec load;
  load.n_sessions = 100;
  load.duration_s = 2.0;
  load.sample_rate_hz = profile.sample_rate_hz;
  load.warmup_s = 1.0;
  load.attacker_fraction = 0.5;
  load.ticks_per_pump = 2;
  load.full_chat = false;  // synthetic 8x8 frames, same as socket mode

  service::ServiceConfig service_cfg;
  service_cfg.n_shards = 8;
  service_cfg.max_sessions = load.n_sessions;

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  // Lit runs: every telemetry surface enabled at once on the same spec.
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(service_cfg.n_shards, 256);
  const std::string dump_path = "bench_telemetry.flight.jsonl";
  std::remove(dump_path.c_str());
  recorder.arm_auto_dump(
      dump_path, obs::kTriggerVerdictFlip | obs::kTriggerAbstainBurst |
                     obs::kTriggerProtocolError | obs::kTriggerSessionEvict);
  std::string stats_json;
  wire::SocketLoadOptions lit;
  lit.flight_recorder = &recorder;
  lit.heartbeat_every = 1;
  lit.stats_every = 2;
  lit.last_stats_json = &stats_json;

  // Dark (reference) and lit passes alternate, kRepeats each, so a burst of
  // load from other processes slows both arms rather than one; the
  // overhead gate below compares the fastest run of each arm.
  constexpr int kRepeats = 3;
  std::vector<service::LoadReport> dark_runs;
  std::vector<service::LoadReport> lit_runs;
  for (int rep = 0; rep < kRepeats; ++rep) {
    dark_runs.push_back(wire::run_socket_load(
        load, service_cfg, streaming, models, wire::SocketLoadOptions{}));
    lit_runs.push_back(wire::run_socket_load(
        load, service_cfg, streaming, models, lit, nullptr, &registry));
  }
  const service::LoadReport& dark = dark_runs.front();
  const auto fastest = [](const std::vector<service::LoadReport>& runs) {
    double best = runs.front().elapsed_s;
    for (const service::LoadReport& r : runs) {
      best = std::min(best, r.elapsed_s);
    }
    return best;
  };

  bool lit_identical = true;
  for (const service::LoadReport& r : lit_runs) {
    lit_identical =
        lit_identical && equivalent_verdicts(dark.sessions, r.sessions);
  }
  check(lit_identical,
        "verdicts bit-identical with recorder + stats polling enabled");

  // Legacy clients: protocol v1 drops trace ids and cannot ask for stats,
  // but the verdict substance must not move.
  wire::SocketLoadOptions v1;
  v1.protocol_version = 1;
  const service::LoadReport legacy = wire::run_socket_load(
      load, service_cfg, streaming, models, v1);
  check(equivalent_verdicts(dark.sessions, legacy.sessions),
        "verdicts bit-identical when clients speak protocol v1");

  // The in-band stats endpoint answered, and the snapshot is the real one.
  check(!stats_json.empty(), "stats endpoint replied during the run");
  check(obs::json_well_formed(stats_json), "stats snapshot JSON parses");
  check(stats_json.find("\"wire.frames_in\"") != std::string::npos,
        "stats snapshot carries wire.frames_in");
  check(stats_json.find("\"wire.heartbeat_rtt\"") != std::string::npos,
        "stats snapshot carries wire.heartbeat_rtt");
  check(stats_json.find("\"model.version\"") != std::string::npos,
        "stats snapshot carries model.version");
  check(stats_json.find("\"service.stage.queue_wait\"") != std::string::npos,
        "stats snapshot carries per-stage latency histograms");
  check(registry.histogram("wire.heartbeat_rtt").count() > 0,
        "heartbeat pings produced RTT samples");

  // Flight recorder: frames were recorded, session teardown tripped an
  // armed trigger, and the server's poll-cycle dump wrote parseable JSONL.
  check(recorder.recorded_count() > 0, "flight recorder captured entries");
  check(recorder.trigger_count() > 0,
        "session teardown tripped an armed trigger");
  std::FILE* f = std::fopen(dump_path.c_str(), "rb");
  check(f != nullptr, "auto-dump JSONL was written");
  if (f != nullptr) {
    std::size_t lines = 0;
    bool all_parse = true;
    bool saw_evict = false;
    std::string line;
    for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
      if (c != '\n') {
        line.push_back(static_cast<char>(c));
        continue;
      }
      ++lines;
      all_parse = all_parse && obs::json_well_formed(line);
      saw_evict = saw_evict ||
                  line.find("\"kind\":\"session_evict\"") != std::string::npos;
      line.clear();
    }
    std::fclose(f);
    check(lines > 0, "auto-dump holds at least one entry");
    check(all_parse, "every flight-recorder line is well-formed JSON");
    check(saw_evict, "auto-dump includes the session_evict trigger entry");
  }

  // Overhead: lenient by default (one short run is noisy); CI perf jobs can
  // tighten via LUMICHAT_TELEMETRY_TOL (fractional slowdown, e.g. 0.01).
  double tol = 0.50;
  if (const char* env = std::getenv("LUMICHAT_TELEMETRY_TOL")) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) tol = v;
  }
  const double dark_s = fastest(dark_runs);
  const double lit_s = fastest(lit_runs);
  const double overhead = dark_s > 0.0 ? lit_s / dark_s - 1.0 : 0.0;
  std::printf("[overhead] fastest of %d: dark %.3fs -> lit %.3fs "
              "(%+.2f%%, tolerance %.0f%%)\n",
              kRepeats, dark_s, lit_s, 100.0 * overhead, 100.0 * tol);
  check(overhead <= tol, "telemetry overhead within tolerance");

  if (failures > 0) {
    std::fprintf(stderr, "\n%d telemetry check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall telemetry checks passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lumichat;

  // Flags first (they do not shift the positional scale arguments).
  std::string trace_out = obs::env_trace_path();
  std::string explain_out;
  std::string json_out;
  std::string listen_path;
  bool selftest = false;
  bool telemetry_selftest = false;
  std::size_t socket_conns = 0;  // 0 = in-process mode
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-selftest") == 0) {
      selftest = true;
    } else if (std::strcmp(argv[i], "--telemetry-selftest") == 0) {
      telemetry_selftest = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--explain-out") == 0 && i + 1 < argc) {
      explain_out = argv[++i];
    } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_path = argv[++i];
    } else if (std::strncmp(argv[i], "--socket", 8) == 0) {
      socket_conns = 8;
      if (argv[i][8] == '=') {
        socket_conns = std::strtoul(argv[i] + 9, nullptr, 10);
        if (socket_conns == 0) socket_conns = 8;
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (selftest) return run_trace_selftest();
  if (telemetry_selftest) return run_telemetry_selftest();

  std::size_t n_sessions = 500;
  double duration_s = 6.0;
  double window_s = 3.0;
  double attacker_pct = 50.0;
  if (positional.size() > 0) n_sessions = std::strtoul(positional[0], nullptr, 10);
  if (positional.size() > 1) duration_s = std::strtod(positional[1], nullptr);
  if (positional.size() > 2) window_s = std::strtod(positional[2], nullptr);
  if (positional.size() > 3) attacker_pct = std::strtod(positional[3], nullptr);
  if (n_sessions == 0) n_sessions = 500;
  if (duration_s <= 0.0) duration_s = 6.0;
  if (window_s <= 0.0) window_s = duration_s;

  if (socket_conns > 0) {
    return run_socket_bench(n_sessions, duration_s, window_s, attacker_pct,
                            socket_conns, json_out, listen_path);
  }

  bench::header("Service runtime: concurrent-session load & determinism");

  eval::SimulationProfile profile;
  profile.clip_duration_s = window_s;
  core::StreamingConfig streaming;
  streaming.detector = profile.detector_config();
  streaming.window_s = window_s;
  const auto models = train_models(profile, window_s);

  // JSONL decision records for every completed window, when asked for
  // (the sink is handed to every session the service creates).
  obs::ExplanationSink* sink = nullptr;
  std::unique_ptr<obs::JsonlExplanationWriter> explain_writer;
  if (!explain_out.empty()) {
    explain_writer = std::make_unique<obs::JsonlExplanationWriter>(explain_out);
    if (explain_writer->ok()) {
      sink = explain_writer.get();
    } else {
      std::fprintf(stderr, "cannot open --explain-out %s\n",
                   explain_out.c_str());
      return 1;
    }
  }

  // --- Scenario ----------------------------------------------------------
  service::LoadSpec load;
  load.n_sessions = n_sessions;
  load.duration_s = duration_s;
  load.sample_rate_hz = profile.sample_rate_hz;
  load.warmup_s = 1.0;
  load.attacker_fraction = attacker_pct / 100.0;
  load.ticks_per_pump = 2;  // bounds buffered frames: 2 pairs per session
  load.full_chat = true;

  service::ServiceConfig service_cfg;
  service_cfg.n_shards = 32;
  if (service_cfg.max_sessions == 0) {
    service_cfg.max_sessions = service::default_service_capacity();
  }
  std::printf("[setup] %zu sessions x %.1fs chat, %.0f%% attackers, "
              "capacity %zu (LUMICHAT_SERVICE_CAPACITY)\n\n",
              n_sessions, duration_s, attacker_pct,
              service_cfg.max_sessions);

  // Tracing covers every measured thread count when requested; the tid
  // field separates the runs' workers. Tracing never changes verdicts (the
  // --trace-selftest mode proves it), only adds overhead — leave it off for
  // clean throughput numbers.
  obs::Tracer tracer;
  if (!trace_out.empty()) tracer.install();
  obs::MetricsRegistry registry;

  std::vector<std::size_t> thread_counts{1, 2, 4};
  const std::size_t hw = common::ThreadPool::default_thread_count();
  if (hw > 4) thread_counts.push_back(hw);

  bench::row("%-10s %-10s %-11s %-11s %-9s %-9s %-9s %-8s %-8s", "threads",
             "time (s)", "frames/s", "sessions/s", "p50 (ms)", "p95 (ms)",
             "p99 (ms)", "drops", "speedup");

  std::vector<service::SessionResult> baseline;
  double baseline_s = 0.0;
  double four_thread_speedup = 0.0;
  std::string json;
  bool deterministic = true;
  service::LoadReport final_report;
  std::size_t final_threads = 0;

  for (const std::size_t nt : thread_counts) {
    common::ThreadPool pool(nt);
    const service::LoadReport report = service::run_load(
        load, service_cfg, streaming, models, sink, &pool, &registry);

    if (baseline.empty()) {
      baseline = report.sessions;
      baseline_s = report.elapsed_s;
    } else if (!same_verdicts(baseline, report.sessions)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: per-session verdicts @ %zu "
                   "threads differ from the 1-thread run\n",
                   nt);
      deterministic = false;
    }
    const double speedup = report.elapsed_s > 0.0
                               ? baseline_s / report.elapsed_s
                               : 0.0;
    if (nt == 4) four_thread_speedup = speedup;
    bench::row("%-10zu %-10.2f %-11.0f %-11.1f %-9.2f %-9.2f %-9.2f "
               "%-8llu %-8.2f",
               nt, report.elapsed_s, report.frames_per_sec(),
               report.sessions_per_sec(), report.metrics.latency_p50_s * 1e3,
               report.metrics.latency_p95_s * 1e3,
               report.metrics.latency_p99_s * 1e3,
               static_cast<unsigned long long>(report.metrics.frames_dropped),
               speedup);
    json = report.metrics.to_json();
    if (nt == thread_counts.back()) {
      std::printf("\n[accuracy] %.1f%% of %zu sessions classified "
                  "correctly (%zu rejected at admission)\n",
                  100.0 * report.accuracy(), report.sessions.size(),
                  report.sessions_rejected);
      final_report = report;
      final_threads = nt;
    }
  }

  std::printf("[metrics] %s\n", json.c_str());
  std::printf("[registry] %s\n", registry.to_json().c_str());
  if (!trace_out.empty()) {
    obs::Tracer::uninstall();
    const std::string stages_out = trace_out + ".stages.json";
    if (tracer.write_chrome_trace(trace_out)) {
      std::printf("[trace] Chrome trace -> %s (%zu spans, %llu dropped)\n",
                  trace_out.c_str(), tracer.snapshot().size(),
                  static_cast<unsigned long long>(tracer.spans_dropped()));
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    }
    std::FILE* f = std::fopen(stages_out.c_str(), "wb");
    if (f != nullptr) {
      const std::string summary = tracer.stage_summary_json();
      std::fwrite(summary.data(), 1, summary.size(), f);
      std::fclose(f);
      std::printf("[trace] per-stage timings -> %s\n", stages_out.c_str());
    }
  }
  if (!deterministic) return 1;
  if (!json_out.empty()) {
    std::string record = "{\"in_process\":";
    record += report_record(final_report, n_sessions, duration_s, window_s,
                            attacker_pct);
    record += ",\"threads\":" + std::to_string(final_threads);
    record += "}}";
    if (write_json_file(json_out, record)) {
      std::printf("[json] in-process record -> %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write --json-out %s\n", json_out.c_str());
      return 1;
    }
  }
  std::printf("\nall thread counts produced bit-identical per-session "
              "verdict sequences (1 -> 4 threads speedup: %.2fx, hardware "
              "threads here: %zu)\n",
              four_thread_speedup, hw);
  return 0;
}
