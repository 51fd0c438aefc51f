// Sec. IX computation-overhead micro-benchmarks (google-benchmark).
//
// The paper's claim: feature extraction + classification for one 15-second
// clip complete "within 0.2 seconds" even in a naive Matlab/Python
// implementation, and landmark detection runs at hundreds of fps — i.e. the
// defense is cheap enough for phones. These benchmarks measure our C++
// implementation of each stage, plus the cost of the observability layer
// itself: BM_ObsSpanDisabled vs BM_ObsSpanEnabled, and the full detect path
// traced vs untraced (the <1%-when-off claim in DESIGN.md §Observability).
//
//   ./bench_perf --trace-out perf.trace.json   # also emit a Chrome trace
//                                              # (or LUMICHAT_TRACE=path)
//   ./bench_perf --simd-json BENCH_simd.json  # scalar-vs-AVX2 per-kernel
//                                             # timings + bit-equality gate
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/luminance_extractor.hpp"
#include "core/preprocess.hpp"
#include "eval/dataset.hpp"
#include "eval/population.hpp"
#include "face/landmark_detector.hpp"
#include "face/renderer.hpp"
#include "image/luminance.hpp"
#include "obs/trace.hpp"
#include "optics/camera.hpp"
#include "model/snapshot.hpp"
#include "simd/dispatch.hpp"

#include "presimd_ref.hpp"

namespace {

using namespace lumichat;

// Shared expensive fixtures, built once.
struct Fixtures {
  eval::SimulationProfile profile;
  eval::DatasetBuilder data{profile};
  chat::SessionTrace trace;
  core::LuminanceExtractor extractor{profile.detector_config()};
  core::Preprocessor pre{profile.detector_config()};
  core::FeatureExtractor fx{profile.detector_config()};
  core::Detector detector{profile.detector_config()};
  signal::Signal t_raw;
  signal::Signal r_raw;
  core::PreprocessResult t_pre;
  core::PreprocessResult r_pre;
  core::FeatureVector feature;
  image::Image face_frame;

  Fixtures() {
    const auto pop = eval::make_population();
    trace = data.legit_trace(pop[0], 0);
    t_raw = extractor.transmitted_signal(trace.transmitted);
    r_raw = extractor.received_signal(trace.received).luminance;
    t_pre = pre.process_transmitted(t_raw);
    r_pre = pre.process_received(r_raw);
    feature = fx.extract(t_pre, r_pre).features;
    detector.attach_model(model::fit_lof_model(detector.config(), 
        data.features(pop[9], eval::Role::kLegitimate, 20)));
    face_frame = trace.received.frames[50];
  }
};

Fixtures& fixtures() {
  static Fixtures f;
  return f;
}

void BM_LandmarkDetectionPerFrame(benchmark::State& state) {
  Fixtures& f = fixtures();
  const face::LandmarkDetector det;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.detect(f.face_frame));
  }
}
BENCHMARK(BM_LandmarkDetectionPerFrame);

void BM_LuminanceExtraction15sClip(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.extractor.received_signal(f.trace.received));
  }
}
BENCHMARK(BM_LuminanceExtraction15sClip);

void BM_Preprocess15sSignal(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.pre.process_received(f.r_raw));
  }
}
BENCHMARK(BM_Preprocess15sSignal);

void BM_FeatureExtraction(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.fx.extract(f.t_pre, f.r_pre));
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_LofClassification(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.classify(f.feature));
  }
}
BENCHMARK(BM_LofClassification);

// The Sec. IX headline: everything after video capture, for one 15 s clip.
void BM_DetectFull15sClip(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.detect(f.trace));
  }
}
BENCHMARK(BM_DetectFull15sClip)->Unit(benchmark::kMillisecond);

void BM_LofTraining20Instances(benchmark::State& state) {
  Fixtures& f = fixtures();
  const auto train = f.data.features(eval::make_population()[9],
                                     eval::Role::kLegitimate, 20);
  for (auto _ : state) {
    core::Detector det(f.profile.detector_config());
    det.attach_model(model::fit_lof_model(det.config(), train));
    benchmark::DoNotOptimize(det);
  }
}
BENCHMARK(BM_LofTraining20Instances);

// --- Observability-layer overhead ------------------------------------------

/// Restores the previously active tracer (if any) on scope exit, so a
/// benchmark that installs its own tracer composes with --trace-out.
struct ScopedTracerSwap {
  explicit ScopedTracerSwap(obs::Tracer& t) : prev(obs::Tracer::active()) {
    t.install();
  }
  ~ScopedTracerSwap() {
    if (prev != nullptr) {
      prev->install();
    } else {
      obs::Tracer::uninstall();
    }
  }
  obs::Tracer* prev;
};

/// The disabled-path cost of one ObsSpan guard: one relaxed atomic load, a
/// branch, and a trivially dead destructor. This is what every traced stage
/// pays when no tracer is installed — it must stay in the ~1 ns range.
void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Tracer* prev = obs::Tracer::active();
  obs::Tracer::uninstall();
  for (auto _ : state) {
    const obs::ObsSpan span("bench.noop", "bench");
    benchmark::DoNotOptimize(&span);
  }
  if (prev != nullptr) prev->install();
}
BENCHMARK(BM_ObsSpanDisabled);

/// The enabled-path cost: logical-clock tick, wall-clock read, and one
/// record appended to the thread-local bounded buffer.
void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  const ScopedTracerSwap swap(tracer);
  for (auto _ : state) {
    const obs::ObsSpan span("bench.noop", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanEnabled);

/// Full detect path with tracing ON — compare against BM_DetectFull15sClip
/// for the end-to-end overhead of live tracing (spans are per-stage, not
/// per-sample, so the delta should be far under 1%).
void BM_DetectFull15sClipTraced(benchmark::State& state) {
  Fixtures& f = fixtures();
  obs::Tracer tracer;
  const ScopedTracerSwap swap(tracer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.detect(f.trace));
  }
}
BENCHMARK(BM_DetectFull15sClipTraced)->Unit(benchmark::kMillisecond);

// --- SIMD kernel before/after ----------------------------------------------
//
// Per-kernel scalar-vs-AVX2 timings over hot-path-realistic sizes. Two
// consumers:
//  * `--benchmark_filter=BM_Simd` — google-benchmark entries, one per
//    (kernel, ISA), registered dynamically for every table the machine has;
//  * `--simd-json PATH` — a self-contained mode that first gates scalar and
//    AVX2 outputs BIT-identical on every workload (exits nonzero on any
//    mismatch), then writes per-kernel scalar_ns / avx2_ns / speedup JSON.
//    bench/BENCH_simd.json is a checked-in run of this mode.

/// One benchmarkable kernel invocation: writes its full output (reductions
/// write one element) into `out` so the equality gate can compare tables.
/// `presimd`, when set, is the pre-SIMD implementation this PR replaced
/// (sequential single-accumulator reductions) — the honest "before" of the
/// before/after numbers. It is timed but excluded from the bit-equality
/// gate: its summation order intentionally differs.
struct SimdWorkload {
  const char* name;
  std::size_t out_len;
  std::function<void(const simd::Kernels&, double* out)> run;
  std::function<void(double* out)> presimd;
};

struct SimdData {
  std::vector<double> sig_a;
  std::vector<double> sig_b;
  std::vector<double> taps;
  std::vector<double> rgb;
  std::vector<std::uint8_t> payload;
  image::Image frame{64, 64};
  // Fractional nasal-ROI-sized region: exercises boundary columns plus a
  // ~52-pixel dispatched interior run per row.
  image::RectF roi{3.4, 2.6, 52.8, 44.3};

  SimdData() {
    // Sizes chosen from the hot path: ~1k pixels is one nasal-ROI scan,
    // 4096 samples is hundreds of seconds of 25 Hz luminance signal. The
    // pixel set is deliberately L1-resident — per-frame work touches it
    // while hot, so timing it through L2 would understate the kernels.
    const std::size_t n = 4096;
    const std::size_t npix = 1024;
    std::uint64_t s = 0x2545f4914f6cdd1dull;
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return static_cast<double>(s >> 11) * 0x1.0p-53;
    };
    sig_a.resize(n);
    sig_b.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sig_a[i] = 100.0 + 10.0 * next();
      sig_b[i] = 100.0 + 10.0 * next();
    }
    taps.resize(21);
    for (double& t : taps) t = next() - 0.5;
    rgb.resize(npix * 3);
    for (double& v : rgb) v = 255.0 * next();
    for (std::size_t y = 0; y < frame.height(); ++y) {
      for (std::size_t x = 0; x < frame.width(); ++x) {
        frame(x, y) = {255.0 * next(), 255.0 * next(), 255.0 * next()};
      }
    }
    // One 96x72 Frame message payload (32-byte fixed prefix + two f64 RGB
    // planes): the span the wire CRC-32 covers per frame, on each side.
    payload.resize(32 + 2 * 96 * 72 * 3 * sizeof(double));
    for (std::uint8_t& b : payload) {
      b = static_cast<std::uint8_t>(256.0 * next());
    }
  }
};

SimdData& simd_data() {
  static SimdData d;
  return d;
}

std::vector<SimdWorkload> simd_workloads() {
  SimdData& d = simd_data();
  const std::size_t n = d.sig_a.size();
  const std::size_t npix = d.rgb.size() / 3;
  return {
      {"sum", 1,
       [&d, n](const simd::Kernels& k, double* out) {
         out[0] = k.sum(d.sig_a.data(), n);
       },
       [&d, n](double* out) {
         out[0] = lumichat::bench::presimd_sum(d.sig_a.data(), n);
       }},
      {"pearson_accumulate", 3,
       [&d, n](const simd::Kernels& k, double* out) {
         const simd::PearsonSums s =
             k.pearson_accumulate(d.sig_a.data(), d.sig_b.data(), n, 100.0,
                                  100.0);
         out[0] = s.sxy;
         out[1] = s.sxx;
         out[2] = s.syy;
       },
       [&d, n](double* out) {
         lumichat::bench::presimd_pearson(d.sig_a.data(), d.sig_b.data(), n,
                                          100.0, 100.0, out);
       }},
      {"convolve_same_21tap", n,
       [&d, n](const simd::Kernels& k, double* out) {
         k.convolve_same(d.sig_a.data(), n, d.taps.data(), d.taps.size(), out);
       },
       nullptr},
      {"resample_linear_30to25",
       static_cast<std::size_t>(
           std::floor(static_cast<double>(n - 1) / 30.0 * 25.0)) + 1,
       [&d, n](const simd::Kernels& k, double* out) {
         const std::size_t out_n =
             static_cast<std::size_t>(
                 std::floor(static_cast<double>(n - 1) / 30.0 * 25.0)) + 1;
         k.resample_linear(d.sig_a.data(), n, 30.0, 25.0, out, out_n);
       },
       nullptr},
      {"luminance_row_sum", 1,
       [&d, npix](const simd::Kernels& k, double* out) {
         out[0] = k.luminance_row_sum(d.rgb.data(), npix, 0.2126, 0.7152,
                                      0.0722);
       },
       [&d, npix](double* out) {
         out[0] = lumichat::bench::presimd_luminance_row(d.rgb.data(), npix,
                                                         0.2126, 0.7152,
                                                         0.0722);
       }},
      {"roi_luminance_frac", 1,
       [&d](const simd::Kernels& k, double* out) {
         out[0] = image::roi_luminance(d.frame, d.roi, k);
       },
       [&d](double* out) {
         out[0] = lumichat::bench::presimd_roi_luminance(d.frame, d.roi);
       }},
      // The CRC is exact integer arithmetic; its value is stored as a double
      // (exactly representable) so the same equality gate covers it.
      {"crc32_update", 1,
       [&d](const simd::Kernels& k, double* out) {
         out[0] = k.crc32_update(0xFFFFFFFFu, d.payload.data(),
                                 d.payload.size());
       },
       [&d](double* out) {
         out[0] = lumichat::bench::presimd_crc32_update(
             0xFFFFFFFFu, d.payload.data(), d.payload.size());
       }},
  };
}

void register_simd_benchmarks() {
  const simd::Kernels* tables[2] = {&simd::scalar_kernels(),
                                    simd::avx2_kernels()};
  for (const simd::Kernels* table : tables) {
    if (table == nullptr) continue;
    for (const SimdWorkload& w : simd_workloads()) {
      const std::string name =
          std::string("BM_Simd_") + w.name + "/" + table->name;
      benchmark::RegisterBenchmark(
          name.c_str(), [table, w](benchmark::State& state) {
            std::vector<double> out(w.out_len, 0.0);
            for (auto _ : state) {
              w.run(*table, out.data());
              benchmark::DoNotOptimize(out.data());
              benchmark::ClobberMemory();
            }
          });
    }
  }
}

/// Best-of-repeats ns/call for one runnable (kernel-table call or presimd
/// reference).
double time_runner_ns(std::size_t out_len,
                      const std::function<void(double*)>& run) {
  std::vector<double> out(out_len, 0.0);
  auto run_batch = [&](std::size_t iters) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      run(out.data());
      benchmark::DoNotOptimize(out.data());
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  // Calibrate to ~5 ms per batch, then take the best of 5 batches (least
  // noise on a shared machine).
  std::size_t iters = 8;
  while (run_batch(iters) < 5e6 && iters < (1u << 24)) iters *= 2;
  double best = run_batch(iters);
  for (int rep = 1; rep < 5; ++rep) best = std::min(best, run_batch(iters));
  return best / static_cast<double>(iters);
}

double time_simd_ns(const SimdWorkload& w, const simd::Kernels& table) {
  return time_runner_ns(w.out_len,
                        [&](double* out) { w.run(table, out); });
}

/// --simd-json driver: equality gate + timing report. Returns the process
/// exit code.
int run_simd_json(const std::string& path) {
  const simd::Kernels& scalar = simd::scalar_kernels();
  const simd::Kernels* avx2 = simd::avx2_kernels();
  std::string json = "{\n  \"avx2_available\": ";
  json += (avx2 != nullptr) ? "true" : "false";
  json += ",\n  \"kernels\": {\n";
  bool ok = true;
  bool first = true;
  for (const SimdWorkload& w : simd_workloads()) {
    std::vector<double> out_s(w.out_len, 0.0);
    w.run(scalar, out_s.data());
    if (avx2 != nullptr) {
      std::vector<double> out_v(w.out_len, 7.0);
      w.run(*avx2, out_v.data());
      for (std::size_t i = 0; i < w.out_len; ++i) {
        if (std::bit_cast<std::uint64_t>(out_s[i]) !=
            std::bit_cast<std::uint64_t>(out_v[i])) {
          std::fprintf(stderr,
                       "[simd] BIT MISMATCH kernel=%s index=%zu "
                       "scalar=%.17g avx2=%.17g\n",
                       w.name, i, out_s[i], out_v[i]);
          ok = false;
          break;
        }
      }
    }
    // "speedup" is the before/after of the dispatch layer: pre-SIMD hot-path
    // loop vs the AVX2 table. Where the pre-SIMD loop is literally the
    // scalar-table code (per-output kernels: convolve, resample), the scalar
    // table IS the before and there is no separate presimd entry.
    // "speedup_vs_scalar_table" isolates the hand-vectorization alone — the
    // scalar table already carries the widened multi-accumulator reduction,
    // so without FMA (banned by the bit-equality contract) that ratio is
    // port-capped at 4.0x on 4-wide doubles.
    const double ns_s = time_simd_ns(w, scalar);
    const double ns_p = w.presimd ? time_runner_ns(w.out_len, w.presimd)
                                  : ns_s;
    const double ns_v = (avx2 != nullptr) ? time_simd_ns(w, *avx2) : 0.0;
    char buf[320];
    if (avx2 != nullptr && w.presimd) {
      std::snprintf(buf, sizeof buf,
                    "    \"%s\": {\"presimd_ns\": %.1f, \"scalar_ns\": %.1f, "
                    "\"avx2_ns\": %.1f, \"speedup\": %.2f, "
                    "\"speedup_vs_scalar_table\": %.2f}",
                    w.name, ns_p, ns_s, ns_v, ns_p / ns_v, ns_s / ns_v);
      std::fprintf(stderr,
                   "[simd] %-24s presimd %9.1f ns  scalar %9.1f ns  avx2 "
                   "%9.1f ns  speedup %5.2fx (vs scalar table %4.2fx)\n",
                   w.name, ns_p, ns_s, ns_v, ns_p / ns_v, ns_s / ns_v);
    } else if (avx2 != nullptr) {
      std::snprintf(buf, sizeof buf,
                    "    \"%s\": {\"scalar_ns\": %.1f, \"avx2_ns\": %.1f, "
                    "\"speedup\": %.2f}",
                    w.name, ns_s, ns_v, ns_s / ns_v);
      std::fprintf(stderr, "[simd] %-24s scalar %10.1f ns  avx2 %10.1f ns  "
                   "speedup %5.2fx\n", w.name, ns_s, ns_v, ns_s / ns_v);
    } else {
      std::snprintf(buf, sizeof buf, "    \"%s\": {\"scalar_ns\": %.1f}",
                    w.name, ns_s);
      std::fprintf(stderr, "[simd] %-24s scalar %10.1f ns (no AVX2)\n",
                   w.name, ns_s);
    }
    if (!first) json += ",\n";
    json += buf;
    first = false;
  }
  json += "\n  }\n}\n";
  if (!ok) {
    std::fprintf(stderr, "[simd] bit-equality gate FAILED; no JSON written\n");
    return 1;
  }
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "[simd] wrote %s\n", path.c_str());
    return 0;
  }
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return 1;
}

}  // namespace

// Custom main (instead of benchmark::benchmark_main) so a Chrome trace of
// the benchmarked pipeline stages can be requested: --trace-out PATH (or
// LUMICHAT_TRACE=PATH) installs a process tracer for the whole run and
// writes the trace plus a per-stage timing summary (PATH.stages.json).
int main(int argc, char** argv) {
  std::string trace_out = lumichat::obs::env_trace_path();
  std::string simd_json;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--simd-json") == 0 && i + 1 < argc) {
      simd_json = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  // Standalone mode: equality-gate and time the SIMD kernel tables, write
  // the per-kernel JSON, and skip the google-benchmark suite entirely.
  if (!simd_json.empty()) return run_simd_json(simd_json);

  register_simd_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  lumichat::obs::Tracer tracer;
  if (!trace_out.empty()) tracer.install();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!trace_out.empty()) {
    lumichat::obs::Tracer::uninstall();
    if (!tracer.write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
    const std::string stages_out = trace_out + ".stages.json";
    if (std::FILE* f = std::fopen(stages_out.c_str(), "wb")) {
      const std::string summary = tracer.stage_summary_json();
      std::fwrite(summary.data(), 1, summary.size(), f);
      std::fclose(f);
    }
    std::fprintf(stderr, "[trace] %s + %s (%zu spans)\n", trace_out.c_str(),
                 stages_out.c_str(), tracer.snapshot().size());
  }
  return 0;
}
