#include "hfl/simulator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "ckpt/bytes.h"
#include "ckpt/rng_codec.h"
#include "ckpt/run_state.h"
#include "common/log.h"
#include "nn/sgd.h"
#include "runtime/chunking.h"
#include "tensor/kernels/kernels.h"

namespace mach::hfl {

namespace {
/// Examples per evaluation chunk — the shard unit of both evaluation paths.
constexpr std::size_t kEvalChunk = 256;
/// Pending edges are trained and reduced once their arrivals reach this many
/// per pool worker, or after a step's last edge. It bounds the result slots
/// held at once; a one-worker engine flushes after every edge.
constexpr std::size_t kFlushDevicesPerWorker = 16;
/// Span ring capacity per profiler track (overflow drops the oldest, counted).
constexpr std::size_t kSpanRingCapacity = 16384;
/// Minimum seconds between status.json heartbeat writes.
constexpr double kStatusIntervalSeconds = 0.5;
/// Minimum seconds between resource-usage samples (RSS/CPU counters).
constexpr double kResourceIntervalSeconds = 0.25;
}  // namespace

HflSimulator::HflSimulator(const data::Dataset& train, const data::Dataset& test,
                           data::Partition partition,
                           const mobility::MobilitySchedule& schedule,
                           ModelFactory model_factory, HflOptions options)
    : train_(train),
      test_(test),
      partition_(std::move(partition)),
      schedule_(schedule),
      options_(options),
      pool_(runtime::resolve_threads(options_.parallel)),
      slots_([&] {
        std::vector<PoolSlot> slots(pool_.num_workers());
        for (PoolSlot& slot : slots) slot.model = model_factory();
        return slots;
      }()),
      // Throws on codec parameters out of range.
      transport_(options_.comm, partition_.size(), schedule_.num_edges(),
                 slots_.front().model.num_parameters()),
      engine_rng_(common::split_seed(
          options.sampling_seed != 0 ? options.sampling_seed : options.seed,
          0xe791)) {
  if (partition_.size() != schedule_.num_devices()) {
    throw std::invalid_argument("HflSimulator: partition/schedule device mismatch");
  }
  if (options_.local_epochs == 0 || options_.cloud_interval == 0 ||
      options_.batch_size == 0) {
    throw std::invalid_argument("HflSimulator: zero local_epochs/cloud_interval/batch");
  }
  for (const auto& part : partition_) {
    if (part.empty()) throw std::invalid_argument("HflSimulator: empty device shard");
  }
  if (!options_.faults.empty()) {
    options_.faults.validate();
    options_.faults.validate_topology(partition_.size(), schedule_.num_edges());
    injector_ = fault::FaultInjector(options_.faults, options_.seed);
  }
  common::Rng init_rng(common::split_seed(options_.seed, 0x1417));
  slots_.front().model.init_params(init_rng);
  global_ = slots_.front().model.get_parameters();
  param_count_ = global_.size();
  edge_models_.assign(schedule_.num_edges(), global_);
  plans_.resize(schedule_.num_edges());
  device_rngs_.reserve(partition_.size());
  for (std::size_t m = 0; m < partition_.size(); ++m) {
    device_rngs_.emplace_back(common::split_seed(options_.seed, 0xd00 + m));
  }
  if (options_.checkpoint.enabled()) {
    ckpt_manager_ = std::make_unique<ckpt::CheckpointManager>(
        options_.checkpoint.dir, options_.checkpoint.keep);
  }
  if (options_.checkpoint.resume) {
    if (auto loaded = ckpt_manager_->load_latest()) {
      ckpt::ByteReader in(loaded->payload);
      resume_header_ = ckpt::RunStateHeader::decode(in);
      resume_payload_ = std::move(loaded->payload);
    } else {
      common::log_warn("resume: no usable snapshot in ", options_.checkpoint.dir,
                       " -- starting from step 0");
    }
  }
}

double HflSimulator::edge_capacity(std::size_t /*edge*/) const {
  return options_.participation * static_cast<double>(num_devices()) /
         static_cast<double>(num_edges());
}

FederationInfo HflSimulator::federation_info() const {
  FederationInfo info;
  info.num_devices = num_devices();
  info.num_edges = num_edges();
  info.num_classes = train_.num_classes();
  info.cloud_interval = options_.cloud_interval;
  info.class_histograms.reserve(partition_.size());
  for (const auto& part : partition_) {
    info.class_histograms.push_back(train_.class_histogram(part));
  }
  return info;
}

void HflSimulator::train_device(std::size_t t, std::uint32_t device,
                                std::size_t edge,
                                const std::vector<float>& edge_model,
                                PoolSlot& slot, DeviceSlot& out) {
  nn::Sequential& model = slot.model;
  model.set_parameters(edge_model);
  nn::Sgd sgd({.learning_rate = options_.learning_rate,
               .momentum = 0.0,
               .weight_decay = 0.0});
  TrainingObservation& obs = out.observation;
  obs.t = t;
  obs.device = device;
  obs.edge = edge;
  obs.local_grad_sq_norms.assign(options_.local_epochs, 0.0);
  double loss_total = 0.0;
  auto& rng = device_rngs_[device];
  const obs::SpanGuard span("local_sgd", static_cast<std::int64_t>(t), device);
  data::Batch& batch = slot.batch;
  for (std::size_t tau = 0; tau < options_.local_epochs; ++tau) {
    train_.sample_batch(partition_[device], options_.batch_size, rng, batch);
    loss_total += model.forward_backward(batch.features, batch.labels);
    slot.norms.add(model, &obs.local_grad_sq_norms[tau]);
    sgd.step(model);
  }
  obs.mean_loss = loss_total / static_cast<double>(options_.local_epochs);
  model.get_parameters(out.params);
}

void HflSimulator::train_jobs(std::size_t t) {
  if (jobs_.empty()) return;
  if (device_slots_.size() < jobs_.size()) device_slots_.resize(jobs_.size());
  // One DeviceTraining scope per section, on the coordinator's track: the
  // phase records the section's wall time, so the breakdown shows the
  // realised speedup. The slots' device_train spans are profile-only.
  const obs::SpanGuard section_span(timers_[obs::Phase::DeviceTraining],
                                    "train_section",
                                    static_cast<std::int64_t>(t));
  // Each slice claims job indices from one counter until none are left. A
  // job reads only its start model, its shard and its device's RNG stream
  // and writes only its own slot, so which worker ran it changes no bit.
  std::atomic<std::size_t> next_job{0};
  pool_.parallel_for(
      0, std::min(jobs_.size(), pool_.num_workers()),
      [&](std::size_t /*slice*/, std::size_t slot) {
        // Bind the slice's thread to its slot's span track for the slice
        // (slot ownership is exclusive within a section, so the track ring
        // is single-writer; the coordinator's own binding returns after).
        const obs::SpanProfiler::ThreadScope track(
            profiler_.get(), static_cast<std::uint32_t>(slot + 1));
        for (std::size_t j = next_job++; j < jobs_.size(); j = next_job++) {
          const TrainingJob& job = jobs_[j];
          const obs::SpanGuard span("device_train",
                                    static_cast<std::int64_t>(t), job.device);
          train_device(t, job.device, job.edge, *job.start, slots_[slot],
                       device_slots_[j]);
        }
      });
  // The slots' partial norm batches, before the reduction reads any norm.
  for (PoolSlot& slot : slots_) slot.norms.flush();
}

void HflSimulator::probe_gradient_norm(std::uint32_t device, double* result) {
  // Oracle probe (MACH-P): the true gradient norm at the current edge model,
  // computed over a fixed prefix of the device's shard (capped for cost).
  // Deterministic so the oracle baseline is noise-free, as the paper assumes
  // ("training experiences for each device in every time step are known").
  constexpr std::size_t kProbeCap = 16;
  const auto& shard = partition_[device];
  const std::size_t count = std::min(shard.size(), kProbeCap);
  PoolSlot& slot = slots_.front();
  train_.gather(std::span<const std::size_t>(shard.data(), count), slot.batch);
  slot.model.forward_backward(slot.batch.features, slot.batch.labels);
  slot.norms.add(slot.model, result);
}

void HflSimulator::for_each_test_chunk(
    std::int64_t t,
    const std::function<void(std::size_t, nn::Sequential&, const data::Batch&)>&
        fn) {
  const std::size_t total = test_.size();
  const std::size_t chunks = runtime::num_chunks(total, kEvalChunk);
  pool_.parallel_for(0, chunks, [&](std::size_t c, std::size_t slot) {
    const obs::SpanProfiler::ThreadScope track(
        profiler_.get(), static_cast<std::uint32_t>(slot + 1));
    const obs::SpanGuard span("eval_chunk", t, static_cast<std::int64_t>(c));
    std::vector<std::size_t> indices;
    runtime::fill_iota(indices, runtime::chunk_range(c, total, kEvalChunk));
    nn::Sequential& model = slots_[slot].model;
    model.set_parameters(global_);
    fn(c, model, test_.gather(indices));
  });
}

EvalPoint HflSimulator::evaluate_global(std::size_t t) {
  EvalPoint point;
  point.t = t;
  // Test evaluation is sharded into fixed chunks; each chunk's statistics
  // land in a slot and the fold below walks the slots in chunk order, so
  // every worker count produces bitwise-identical sums.
  eval_slots_.assign(runtime::num_chunks(test_.size(), kEvalChunk),
                     nn::StepStats{});
  for_each_test_chunk(static_cast<std::int64_t>(t),
                      [&](std::size_t c, nn::Sequential& model,
                          const data::Batch& batch) {
                        eval_slots_[c] =
                            model.evaluate(batch.features, batch.labels);
                      });
  std::size_t correct = 0;
  double loss = 0.0;
  std::size_t seen = 0;
  for (const nn::StepStats& stats : eval_slots_) {
    correct += stats.correct;
    loss += stats.loss * static_cast<double>(stats.batch_size);
    seen += stats.batch_size;
  }
  if (seen > 0) {
    point.test_accuracy = static_cast<double>(correct) / static_cast<double>(seen);
    point.test_loss = loss / static_cast<double>(seen);
  }
  if (options_.track_global_grad_norm_examples > 0) {
    // Theorem 1's LHS: gradient of the population objective f (Eq. 2) at the
    // current global model, over a fixed prefix of the training data.
    const std::size_t count =
        std::min(train_.size(), options_.track_global_grad_norm_examples);
    std::vector<std::size_t> sample(count);
    for (std::size_t i = 0; i < count; ++i) sample[i] = i;
    const data::Batch batch = train_.gather(sample);
    nn::Sequential& model = slots_.front().model;
    model.set_parameters(global_);
    model.forward_backward(batch.features, batch.labels);
    point.global_grad_sq_norm = model.grad_squared_norm();
  }
  return point;
}

ConfusionMatrix HflSimulator::evaluate_confusion() {
  ConfusionMatrix confusion(test_.num_classes());
  // Per-chunk (label, prediction) pairs; merged in chunk order below so the
  // matrix fills identically at any thread count.
  std::vector<std::vector<std::pair<int, int>>> predictions(
      runtime::num_chunks(test_.size(), kEvalChunk));
  for_each_test_chunk(-1, [&](std::size_t c, nn::Sequential& model,
                              const data::Batch& batch) {
    model.set_training(false);
    const tensor::Tensor& logits = model.forward(batch.features);
    const std::size_t classes = logits.dim(1);
    auto& out = predictions[c];
    out.reserve(batch.size());
    for (std::size_t row = 0; row < batch.size(); ++row) {
      const float* values = logits.data() + row * classes;
      std::size_t best = 0;
      for (std::size_t cls = 1; cls < classes; ++cls) {
        if (values[cls] > values[best]) best = cls;
      }
      out.emplace_back(batch.labels[row], static_cast<int>(best));
    }
  });
  for (const auto& chunk : predictions) {
    for (const auto& [label, predicted] : chunk) confusion.add(label, predicted);
  }
  return confusion;
}

std::uint64_t HflSimulator::run_fingerprint(const Sampler& sampler,
                                            std::size_t steps) const {
  std::uint64_t h = ckpt::kHashSeed;
  h = ckpt::hash_u64(h, options_.seed);
  h = ckpt::hash_u64(h, options_.sampling_seed);
  h = ckpt::hash_u64(h, num_devices());
  h = ckpt::hash_u64(h, num_edges());
  h = ckpt::hash_u64(h, param_count_);
  h = ckpt::hash_u64(h, options_.local_epochs);
  h = ckpt::hash_u64(h, options_.cloud_interval);
  h = ckpt::hash_u64(h, options_.batch_size);
  h = ckpt::hash_f64(h, options_.learning_rate);
  h = ckpt::hash_f64(h, options_.participation);
  h = ckpt::hash_u64(h, static_cast<std::uint64_t>(options_.aggregation));
  h = ckpt::hash_u64(h, options_.track_global_grad_norm_examples);
  h = ckpt::hash_str(h, options_.faults.empty() ? "" : options_.faults.to_string());
  h = ckpt::hash_str(h, options_.comm.all_fp32() ? "" : options_.comm.to_string());
  h = ckpt::hash_str(h, sampler.name());
  h = ckpt::hash_u64(h, steps);
  // The world itself, which no knob above pins and which resuming into
  // another one would silently corrupt. Mobility: scenario presets and
  // layout knobs (stations, hotspots, stay probability, ...) change the
  // device->edge association; only the rows this run reaches matter.
  h = ckpt::hash_u64(h, schedule_.horizon());
  for (std::size_t t = 0; t < std::min(steps, schedule_.horizon()); ++t) {
    for (std::size_t device = 0; device < num_devices(); ++device) {
      h = ckpt::hash_u64(h, schedule_.edge_of(t, device));
    }
  }
  // Data: the task, long-tail ratio, redundancy and data seed reach the run
  // only through the partition and the two splits. Every index and label
  // counts, and one feature per example (example i's element i mod numel)
  // stands in for its features: all of them are ~30 MB in a 2,000-device
  // world.
  for (const auto& part : partition_) {
    h = ckpt::hash_u64(h, part.size());
    for (const std::size_t index : part) h = ckpt::hash_u64(h, index);
  }
  for (const data::Dataset* split : {&train_, &test_}) {
    const std::size_t size = split->size();
    const std::size_t numel = split->example_numel();
    const auto sampled = [numel](std::size_t i) { return i * numel + i % numel; };
    const float* features = split->features().data();
    h = ckpt::hash_u64(h, size);
    for (const std::size_t dim : split->example_shape()) h = ckpt::hash_u64(h, dim);
    for (std::size_t i = 0; numel > 0 && i < size; ++i) {
      // The sampled features lie cache lines apart, mostly outside the
      // cache: fetching ahead keeps their loads off the hash chain's
      // critical path (about half the digest's time at 2,000 devices).
      if (i + 16 < size) __builtin_prefetch(features + sampled(i + 16));
      h = ckpt::hash_u64(h, static_cast<std::uint32_t>(split->labels()[i]));
      h = ckpt::hash_f64(h, features[sampled(i)]);
    }
  }
  return h;
}

void HflSimulator::save_checkpoint(Sampler& sampler, std::size_t steps,
                                   std::size_t next_t, std::size_t cloud_rounds,
                                   double window_train_loss,
                                   std::size_t window_participants,
                                   const MetricsRecorder& metrics) {
  // Marker first: the cursor captured below must cover the marker line, so
  // the resumed trace (truncated to the cursor, then appended) carries the
  // same markers as an uninterrupted checkpointed run.
  std::optional<obs::TraceCursor> cursor;
  if (observer_ != nullptr) {
    obs::CheckpointEvent event;
    event.t = next_t;
    event.steps = steps;
    observer_->on_checkpoint(event);
    cursor = observer_->checkpoint_cursor();
  }

  ckpt::ByteWriter out;
  ckpt::RunStateHeader header;
  header.fingerprint = fingerprint_;
  header.next_t = next_t;
  header.total_steps = steps;
  header.cloud_rounds = cloud_rounds;
  header.window_train_loss = window_train_loss;
  header.window_participants = window_participants;
  if (cursor.has_value()) {
    header.has_trace_cursor = true;
    header.trace_bytes = cursor->byte_offset;
    header.trace_lines = cursor->lines;
  }
  header.encode(out);

  // Model state: the global model and every edge model.
  out.vec_f32(global_);
  out.u64(edge_models_.size());
  for (const auto& edge_model : edge_models_) out.vec_f32(edge_model);

  // RNG streams: the engine's Bernoulli stream plus one minibatch stream per
  // device (each including any cached Box–Muller half-draw).
  ckpt::write_rng(out, engine_rng_);
  out.u64(device_rngs_.size());
  for (const auto& rng : device_rngs_) ckpt::write_rng(out, rng);

  // The byte ledger and codec state.
  transport_.save_state(out);

  // Recorded evaluation trajectory (the final CSV is regenerated from this,
  // which is what makes resumed CSVs byte-identical).
  out.u64(metrics.points().size());
  for (const EvalPoint& p : metrics.points()) {
    out.u64(p.t);
    out.f64(p.test_accuracy);
    out.f64(p.test_loss);
    out.f64(p.train_loss);
    out.u64(p.participants);
    out.f64(p.global_grad_sq_norm);
  }

  // Instrument registry (the run_end trace line embeds its snapshot).
  const obs::MetricsSnapshot snap = registry_.snapshot();
  out.u64(snap.counters.size());
  for (const auto& entry : snap.counters) {
    out.str(entry.name);
    out.u64(entry.value);
  }
  out.u64(snap.gauges.size());
  for (const auto& entry : snap.gauges) {
    out.str(entry.name);
    out.f64(entry.value);
  }
  out.u64(snap.histograms.size());
  for (const auto& entry : snap.histograms) {
    out.str(entry.name);
    out.vec_f64(entry.bounds);
    out.vec_u64(entry.buckets);
    out.u64(entry.count);
    out.f64(entry.sum);
  }

  // Sampler experience (each implementation versions its own blob).
  out.str(sampler.name());
  sampler.save_state(out);

  ckpt_manager_->save(next_t, std::span<const std::uint8_t>(out.data()));
}

void HflSimulator::restore_run_state(Sampler& sampler, std::size_t steps,
                                     MetricsRecorder& metrics) {
  const ckpt::RunStateHeader& header = *resume_header_;
  if (header.fingerprint != fingerprint_) {
    throw std::invalid_argument(
        "checkpoint: fingerprint mismatch — the snapshot was produced by a "
        "different run configuration or data world (seed/topology/"
        "hyperparameters/sampler/steps/data must match; thread count may "
        "differ)");
  }
  if (header.total_steps != steps || header.next_t > steps) {
    throw std::invalid_argument("checkpoint: step horizon mismatch");
  }
  ckpt::ByteReader in(resume_payload_);
  ckpt::RunStateHeader::decode(in);  // read into `header` at construction

  global_ = in.vec_f32();
  if (global_.size() != param_count_) {
    throw ckpt::CorruptPayload("checkpoint: global model size mismatch");
  }
  const std::uint64_t num_edge_models = in.u64();
  if (num_edge_models != edge_models_.size()) {
    throw ckpt::CorruptPayload("checkpoint: edge model count mismatch");
  }
  for (auto& edge_model : edge_models_) {
    edge_model = in.vec_f32();
    if (edge_model.size() != param_count_) {
      throw ckpt::CorruptPayload("checkpoint: edge model size mismatch");
    }
  }

  ckpt::read_rng(in, engine_rng_);
  const std::uint64_t num_rngs = in.u64();
  if (num_rngs != device_rngs_.size()) {
    throw ckpt::CorruptPayload("checkpoint: device RNG count mismatch");
  }
  for (auto& rng : device_rngs_) ckpt::read_rng(in, rng);

  transport_.load_state(in);

  const std::uint64_t num_points = in.u64();
  for (std::uint64_t i = 0; i < num_points; ++i) {
    EvalPoint p;
    p.t = in.u64();
    p.test_accuracy = in.f64();
    p.test_loss = in.f64();
    p.train_loss = in.f64();
    p.participants = in.u64();
    p.global_grad_sq_norm = in.f64();
    metrics.record(p);
  }

  obs::MetricsSnapshot snap;
  const std::uint64_t num_counters = in.u64();
  for (std::uint64_t i = 0; i < num_counters; ++i) {
    const std::string name = in.str();
    snap.counters.push_back({name, in.u64()});
  }
  const std::uint64_t num_gauges = in.u64();
  for (std::uint64_t i = 0; i < num_gauges; ++i) {
    const std::string name = in.str();
    snap.gauges.push_back({name, in.f64()});
  }
  const std::uint64_t num_histograms = in.u64();
  for (std::uint64_t i = 0; i < num_histograms; ++i) {
    obs::MetricsSnapshot::HistogramEntry entry;
    entry.name = in.str();
    entry.bounds = in.vec_f64();
    entry.buckets = in.vec_u64();
    entry.count = in.u64();
    entry.sum = in.f64();
    snap.histograms.push_back(std::move(entry));
  }
  registry_.restore(snap);

  const std::string sampler_name = in.str();
  if (sampler_name != sampler.name()) {
    throw std::invalid_argument("checkpoint: sampler mismatch (snapshot has '" +
                                sampler_name + "', run uses '" +
                                sampler.name() + "')");
  }
  sampler.load_state(in);
  if (!in.at_end()) {
    throw ckpt::CorruptPayload("checkpoint: trailing bytes after run state");
  }
  resume_header_.reset();  // consumed: a later run() starts over
  resume_payload_ = {};
}

MetricsRecorder HflSimulator::run(Sampler& sampler, std::size_t steps) {
  sampler.bind(federation_info());
  MetricsRecorder metrics;
  timers_.reset();
  registry_.reset();

  // Deep-profiling runtime. Everything below is strictly passive (no RNG
  // use, no registry entries — the run_end registry snapshot stays identical
  // whether profiling is on or off) and entirely absent from the hot path
  // when disabled: a plain SpanGuard on an unbound thread is one thread_local
  // read. The phase-tagged guards below are the run's only clock: they
  // charge timers_ whether or not a profiler is bound.
  profiler_.reset();
  resources_.reset();
  status_.reset();
  profile_export_ok_ = true;
  interrupted_at_.reset();
  if (!options_.profile.trace_path.empty()) {
    profiler_ = std::make_unique<obs::SpanProfiler>(1 + pool_.num_workers(),
                                                    kSpanRingCapacity);
  }
  if (profiler_ != nullptr || !options_.profile.status_path.empty()) {
    resources_ = std::make_unique<obs::ResourceSampler>(kResourceIntervalSeconds);
  }
  if (!options_.profile.status_path.empty()) {
    status_ = std::make_unique<obs::StatusWriter>(options_.profile.status_path,
                                                  kStatusIntervalSeconds);
  }
  // If anything below throws, the scope unwind re-writes the last heartbeat
  // with aborted=true — a terminal document for watchers, with no atexit
  // hook. Inert when the heartbeat is off or the final write was `finished`.
  const obs::StatusWriter::AbortScope status_abort_scope(status_.get());
  // Track 0 (coordinator) binding for the whole run; slices bind per
  // parallel section to track slot+1, slot 0's on this thread.
  const obs::SpanProfiler::ThreadScope profile_scope(profiler_.get(), 0);

  // Inner-loop instruments: references are cached once here, so the hot path
  // pays one add per event. None of this touches the RNG stream — attaching
  // an observer (or not) cannot change the simulated run.
  obs::Counter& ctr_trained = registry_.counter("devices_trained");
  obs::Counter& ctr_floor_clamps = registry_.counter("q_clamped_to_floor");
  obs::Counter& ctr_edge_aggs = registry_.counter("edge_aggregations");
  obs::Counter& ctr_empty_edges = registry_.counter("edge_rounds_no_participant");
  obs::Counter& ctr_evals = registry_.counter("evaluations");
  obs::Gauge& gauge_lr = registry_.gauge("learning_rate");
  obs::Histogram& hist_q = registry_.histogram(
      "sampling_probability", {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0});

  // Fault and codec instruments only exist when a schedule is active or a
  // link is lossy (a fault-free fp32 run's run_end line never names them),
  // and are (re)initialised before any resume restore overwrites them.
  injector_.begin_run(registry_);
  transport_.begin_run(registry_, global_);

  // Resume path: the run starts at the position of the snapshot read at
  // construction (a default header is step 0 with empty eval-window
  // accumulators). Its state is applied after instrument registration
  // (restore is lookup-or-create against the same names, so the cached
  // references above stay live) and before any event is emitted — the
  // run_begin line and baseline evaluation already happened in the original
  // run and live in the truncated trace / restored recorder.
  const bool resumed = resume_header_.has_value();
  const ckpt::RunStateHeader start = resume_header_.value_or(ckpt::RunStateHeader{});
  const std::size_t start_t = start.next_t;
  std::size_t cloud_rounds = start.cloud_rounds;
  double window_train_loss = start.window_train_loss;
  std::size_t window_participants = start.window_participants;
  // Once per run, and only when a snapshot is written or checked.
  if (options_.checkpoint.every > 0 || resumed) {
    fingerprint_ = run_fingerprint(sampler, steps);
  }
  if (resumed) restore_run_state(sampler, steps, metrics);

  if (!resumed && observer_ != nullptr) {
    obs::RunBeginEvent event;
    event.sampler = sampler.name();
    event.seed = options_.seed;
    event.steps = steps;
    event.num_devices = num_devices();
    event.num_edges = num_edges();
    event.cloud_interval = options_.cloud_interval;
    if (injector_.enabled()) event.fault_spec = options_.faults.to_string();
    if (transport_.lossy()) event.codec_spec = options_.comm.to_string();
    observer_->on_run_begin(event);
  }

  const auto record_eval = [&](EvalPoint point) {
    metrics.record(point);
    ctr_evals.add();
    if (observer_ != nullptr) {
      obs::EvalEvent event;
      event.t = point.t;
      event.test_accuracy = point.test_accuracy;
      event.test_loss = point.test_loss;
      event.train_loss = point.train_loss;
      event.participants = point.participants;
      event.global_grad_sq_norm = point.global_grad_sq_norm;
      observer_->on_eval(event);
    }
  };

  // Baseline point: the untrained global model (already recorded in the
  // restored trajectory when resuming).
  if (!resumed) {
    const obs::SpanGuard span(timers_[obs::Phase::Evaluation], "evaluation", 0);
    record_eval(evaluate_global(0));
  }

  std::vector<float> aggregate(param_count_);
  std::vector<double> oracle_norms;
  std::vector<std::uint64_t> cloud_lost;  // edges whose upload was lost
  std::size_t num_observed = 0;           // observations_ queued this step

  // Plans one edge round on the coordinator: outage fate, oracle probes, the
  // sampler's clamped q, the Bernoulli draws, the download and the fault
  // fates with their upload attempts. Only arriving devices become training
  // jobs.
  const auto plan_edge = [&](EdgePlan& plan, std::size_t t, std::size_t n,
                             const std::vector<std::uint32_t>& devices) {
    plan.edge = n;
    plan.first_job = jobs_.size();
    // Transient edge outage: the edge runs no round at all — no sampling
    // draws, no training, the edge model carries over unchanged.
    if (injector_.begin_round(t, n, plan.faults)) return;
    const std::vector<float>& edge_model = edge_models_[n];
    const obs::SpanGuard edge_span("edge_round", static_cast<std::int64_t>(t),
                                   static_cast<std::int64_t>(n));

    // Sampler decision phase (Alg. 3 + any oracle probing).
    {
      const obs::SpanGuard span(timers_[obs::Phase::SamplerDecision],
                                "sampler_decision",
                                static_cast<std::int64_t>(t),
                                static_cast<std::int64_t>(n));
      EdgeSamplingContext ctx;
      ctx.t = t;
      ctx.edge = n;
      ctx.capacity = edge_capacity(n);
      ctx.devices = devices;
      if (sampler.needs_oracle()) {
        oracle_norms.resize(devices.size());
        // Probing never changes parameters: one load of the probe broadcast
        // serves every probe, and the norms are evaluated in batches before
        // the sampler reads them.
        slots_.front().model.set_parameters(
            transport_.probe(edge_model, devices.size(), t, n));
        for (std::size_t i = 0; i < devices.size(); ++i) {
          probe_gradient_norm(devices[i], &oracle_norms[i]);
        }
        slots_.front().norms.flush();
        ctx.oracle_grad_sq_norms = oracle_norms;
      }
      plan.probs = sampler.edge_probabilities(ctx);
      if (plan.probs.size() != devices.size()) {
        throw std::logic_error("sampler returned wrong probability count");
      }
      for (auto& q : plan.probs) {
        if (q < kMinProbability) ctr_floor_clamps.add();
        q = std::clamp(q, kMinProbability, 1.0);
        hist_q.observe(q);
      }
    }

    // Device sampling: independent Bernoulli trials drawn in device-index
    // order, edges in order, so the engine RNG stream is identical at any
    // thread count.
    plan.sampled.clear();
    for (std::size_t i = 0; i < devices.size(); ++i) {
      if (engine_rng_.bernoulli(plan.probs[i])) {
        plan.sampled.push_back(static_cast<std::uint32_t>(i));
      }
    }
    const std::size_t num_sampled = plan.sampled.size();
    // Every sampled device trains from the model it received (one decode
    // per edge round stands in for all of them: the encoding is
    // deterministic, all devices receive the same bytes).
    plan.device_view = &transport_.download(edge_model, num_sampled, t, n);
    // Fates are decided before training, from hashed per-(t, edge, device)
    // streams. Dropped devices never upload; the others pay one upload per
    // attempt, arrived or not. Only arrivals train: a lost device's local
    // RNG stream stays unconsumed, and the sampler never observes it.
    injector_.decide_round(t, n, devices, plan.sampled, plan.arrivals,
                           plan.faults);
    const obs::FaultSummary& faults = plan.faults;
    transport_.upload_attempts(num_sampled - faults.num_dropped + faults.num_retries,
                               faults.num_retries);
    for (const std::uint32_t i : plan.arrivals) {
      jobs_.push_back({devices[i], n, plan.device_view});
    }
  };

  // Reduces one edge round once its arrivals have trained, in edge order:
  // uploads, the Horvitz-Thompson accumulation and fold, counters and
  // observer events. The arrivals' observations are queued for the
  // sampler, which receives them after the step's last decision.
  const auto reduce_edge = [&](const EdgePlan& plan, std::size_t t,
                               const std::vector<std::uint32_t>& devices) {
    const std::size_t n = plan.edge;
    obs::EdgeAggregatedEvent event;  // emitted when an observer is attached
    event.t = t;
    event.edge = n;
    event.capacity = edge_capacity(n);
    event.num_devices = devices.size();
    if (plan.faults.edge_outage) {
      if (observer_ != nullptr) {
        event.faults = plan.faults;
        observer_->on_edge_aggregated(event);
      }
      return;
    }
    std::vector<float>& edge_model = edge_models_[n];
    const std::vector<float>& device_view = *plan.device_view;
    // Ordered reduction: observer events, queued observations and the
    // Horvitz-Thompson accumulation walk the edge's arrivals (a lost update
    // has none) in sampled order: float addition order matches at any
    // thread count.
    std::fill(aggregate.begin(), aggregate.end(), 0.0f);
    const double inv_edge_size = 1.0 / static_cast<double>(devices.size());
    double weight_total = 0.0;
    double weight_sq_total = 0.0;  // for the HT-variance diagnostic
    const std::size_t num_arrived = plan.arrivals.size();
    // One EdgeAggregation scope per edge round: uploads, the queued
    // observations and the Horvitz-Thompson accumulation and fold.
    {
      const obs::SpanGuard reduce_span(timers_[obs::Phase::EdgeAggregation],
                                       "edge_reduce",
                                       static_cast<std::int64_t>(t),
                                       static_cast<std::int64_t>(n));
      for (std::size_t k = 0; k < num_arrived; ++k) {
        const std::size_t i = plan.arrivals[k];
        const DeviceSlot& device_slot = device_slots_[plan.first_job + k];
        const TrainingObservation& observation = device_slot.observation;
        window_train_loss += observation.mean_loss;
        ++window_participants;
        if (observer_ != nullptr) {
          obs::DeviceTrainedEvent event;
          event.t = t;
          event.device = devices[i];
          event.edge = n;
          event.q = plan.probs[i];
          event.mean_loss = observation.mean_loss;
          event.last_grad_sq_norm = observation.local_grad_sq_norms.empty()
                                        ? 0.0
                                        : observation.local_grad_sq_norms.back();
          observer_->on_device_trained(event);
        }
        // Copy-assignment reuses the queued entry's capacity: no steady-state
        // allocation.
        if (num_observed == observations_.size()) observations_.emplace_back();
        observations_[num_observed++] = observation;
        // Eq. 5's weight over the surviving set: the realised inclusion
        // probability of an *arriving* device is q_m * a_m, where a_m is the
        // schedule's analytic arrival probability (independent thinning;
        // exactly 1 without faults), so dividing by it keeps the edge
        // aggregate exactly unbiased.
        const double ht_weight =
            inv_edge_size /
            (plan.probs[i] * injector_.arrival_probability(n, devices[i]));
        weight_total += ht_weight;
        weight_sq_total += ht_weight * ht_weight;
        const auto weight = static_cast<float>(ht_weight);
        // The upload as the edge decodes it, on the coordinator in sampled
        // order (bitwise deterministic at any thread count), coded against
        // the model the device trained from.
        const std::vector<float>& upload =
            transport_.upload(devices[i], device_slot.params, device_view, t);
        if (options_.aggregation == AggregationForm::UpdateForm) {
          // HT-weighted deltas (the form the paper's proof analyses) against
          // the model the device actually received.
          tensor::kernels::axpy_delta(param_count_, weight, upload.data(),
                                      device_view.data(), aggregate.data());
        } else {
          // HT-weighted parameters (Eq. 5).
          tensor::kernels::axpy(param_count_, weight, upload.data(),
                                aggregate.data());
        }
      }
      // Edge aggregation (Eq. 5). With no arriving participant (nothing
      // sampled, or every sampled update lost to faults) the edge model is
      // carried over unchanged in every form.
      if (num_arrived > 0) {
        switch (options_.aggregation) {
          case AggregationForm::Literal:
            edge_model.assign(aggregate.begin(), aggregate.end());
            break;
          case AggregationForm::SelfNormalized: {
            const auto inv = static_cast<float>(1.0 / weight_total);
            tensor::kernels::scale_copy(param_count_, inv, aggregate.data(),
                                        edge_model.data());
            break;
          }
          case AggregationForm::UpdateForm:
            tensor::kernels::vadd(param_count_, aggregate.data(),
                                  edge_model.data());
            break;
        }
      }
    }
    ctr_trained.add(num_arrived);
    ctr_edge_aggs.add();
    if (num_arrived == 0) ctr_empty_edges.add();
    if (observer_ != nullptr) {
      event.num_sampled = plan.sampled.size();
      event.q = obs::QSummary::from(plan.probs, kMinProbability);
      event.ht_weight_sum = weight_total;
      if (num_arrived > 0) {
        const double mean_w = weight_total / static_cast<double>(num_arrived);
        event.ht_weight_variance =
            weight_sq_total / static_cast<double>(num_arrived) - mean_w * mean_w;
      }
      event.faults = plan.faults;
      observer_->on_edge_aggregated(event);
    }
  };

  // Pending edges flush (train, then reduce) once their arrivals reach this
  // many: kFlushDevicesPerWorker per pool worker. A one-worker engine
  // flushes after every edge: its section runs on this thread anyway, and
  // the per-edge order keeps each edge's probes, training and reduction
  // together (what bench/e2e's tracer assumes, DESIGN §8) and its memory.
  const std::size_t workers = pool_.num_workers();
  const std::size_t flush_at = workers > 1 ? kFlushDevicesPerWorker * workers : 0;

  // The status.json heartbeat once `step` steps are complete.
  const auto heartbeat = [&](std::size_t step) {
    obs::StatusSnapshot snap;
    snap.sampler = sampler.name();
    snap.step = step;
    snap.start_step = start_t;
    snap.total_steps = steps;
    snap.cloud_rounds = cloud_rounds;
    snap.devices_trained = ctr_trained.value();
    snap.faults_lost = injector_.updates_lost();
    if (profiler_ != nullptr) snap.spans_dropped = profiler_->spans_dropped();
    const obs::ResourceSample resource = resources_->latest();
    snap.current_rss_kb = resource.usage.current_rss_kb;
    snap.peak_rss_kb = resource.usage.peak_rss_kb;
    return snap;
  };

  for (std::size_t t = start_t; t < steps; ++t) {
    const obs::SpanGuard round_span("round", static_cast<std::int64_t>(t));
    gauge_lr.set(options_.learning_rate);
    const auto per_edge = schedule_.devices_per_edge(t);
    if (observer_ != nullptr) {
      obs::StepBeginEvent event;
      event.t = t;
      for (const auto& devices : per_edge) {
        if (devices.empty()) continue;
        ++event.active_edges;
        event.devices_present += devices.size();
      }
      observer_->on_step_begin(event);
    }
    // Algorithm 1's three phases (DESIGN §8): plan every edge round on the
    // coordinator, train the planned arrivals together, reduce each edge in
    // edge order.
    std::size_t in_flight = 0;  // planned edges, plans_[0, in_flight)
    const auto flush = [&] {
      train_jobs(t);
      for (std::size_t p = 0; p < in_flight; ++p) {
        reduce_edge(plans_[p], t, per_edge[plans_[p].edge]);
      }
      in_flight = 0;
      jobs_.clear();
    };
    num_observed = 0;
    for (std::size_t n = 0; n < per_edge.size(); ++n) {
      if (per_edge[n].empty()) continue;
      plan_edge(plans_[in_flight++], t, n, per_edge[n]);
      if (jobs_.size() >= flush_at) flush();
    }
    if (in_flight > 0) flush();
    // Sampler experience, after the step's last decision: edges run their
    // rounds concurrently, so no decision of step t sees an observation of
    // step t. Delivered in edge order, then sampled-device order, so where
    // the flushes fell (the worker count) cannot reach the sampler.
    {
      const obs::SpanGuard span("sampler_observe",
                                static_cast<std::int64_t>(t));
      for (std::size_t i = 0; i < num_observed; ++i) {
        sampler.observe_training(observations_[i]);
      }
    }

    // Edge-to-cloud communication (Eq. 6) on the paper's t mod T_g schedule.
    if (t % options_.cloud_interval == 0) {
      {
        const obs::SpanGuard span(timers_[obs::Phase::CloudAggregation],
                                  "cloud_aggregate",
                                  static_cast<std::int64_t>(t));
        // Which uploads are lost is a pure hash of (t, edge), so it is
        // decided before the fold: a round that loses every upload keeps
        // w^t and never touches it.
        injector_.lost_uploads(t, per_edge, cloud_lost);
        const auto uploading = std::ranges::count_if(
            per_edge, [](const auto& devices) { return !devices.empty(); });
        if (std::cmp_less(cloud_lost.size(), uploading)) {
          std::fill(global_.begin(), global_.end(), 0.0f);
          const double inv_all = 1.0 / static_cast<double>(num_devices());
          double total_mass = 0.0;
          double surviving_mass = 0.0;
          for (std::size_t n = 0; n < num_edges(); ++n) {
            const double weight = static_cast<double>(per_edge[n].size()) * inv_all;
            if (weight == 0.0) continue;
            total_mass += weight;
            if (std::ranges::binary_search(cloud_lost, n)) continue;
            surviving_mass += weight;
            // The cloud folds the edge model as it decoded it.
            const std::vector<float>& upload =
                transport_.edge_upload(edge_models_[n], t, n);
            tensor::kernels::axpy(param_count_, static_cast<float>(weight),
                                  upload.data(), global_.data());
          }
          if (!cloud_lost.empty()) {
            // Eq. 6 renormalised over the surviving edge mass: surviving
            // edges keep their relative |M_n| weights, the overall scale
            // matches the loss-free fold.
            tensor::kernels::scale(
                param_count_, static_cast<float>(total_mass / surviving_mass),
                global_.data());
          }
        }
        // Broadcast (downlink assumed reliable, lost uploads included):
        // every edge receives the global model as it decoded it.
        const std::vector<float>& received = transport_.broadcast(global_, t);
        for (auto& edge_model : edge_models_) edge_model = received;
      }
      {
        // UCB refresh (Alg. 2) is sampler work, charged to its phase.
        const obs::SpanGuard span(timers_[obs::Phase::SamplerDecision],
                                  "sampler_refresh",
                                  static_cast<std::int64_t>(t));
        sampler.on_cloud_round(t);
      }
      ++cloud_rounds;
      if (observer_ != nullptr) {
        obs::CloudRoundEvent event;
        event.t = t;
        event.round = cloud_rounds;
        event.num_edges = num_edges();
        event.faults_active = injector_.enabled();
        event.lost_edges = cloud_lost;
        sampler.introspect(event.sampler);
        observer_->on_cloud_round(event);
      }
      EvalPoint point;
      {
        const obs::SpanGuard span(timers_[obs::Phase::Evaluation],
                                  "evaluation", static_cast<std::int64_t>(t));
        point = evaluate_global(t + 1);
      }
      point.train_loss = window_participants > 0
                             ? window_train_loss /
                                   static_cast<double>(window_participants)
                             : 0.0;
      point.participants = window_participants;
      record_eval(point);
      window_train_loss = 0.0;
      window_participants = 0;
    }

    // Snapshot after every `every` completed steps, and at a cooperative
    // drain (SIGTERM/SIGINT via HflOptions::stop_flag), which then returns
    // early: the resumed run replays the remaining steps bitwise-identically,
    // so a drained fleet loses nothing but wall-clock time. Never after the
    // final step — the run is about to finish anyway and a resumable
    // snapshot would outlive its purpose.
    const std::size_t done = t + 1;
    const bool drain = options_.stop_flag != nullptr &&
                       *options_.stop_flag != 0 && done < steps;
    const bool periodic = options_.checkpoint.every > 0 &&
                          done % options_.checkpoint.every == 0 && done < steps;
    if (periodic || (drain && options_.checkpoint.every > 0)) {
      {
        const obs::SpanGuard span(timers_[obs::Phase::Checkpoint], "checkpoint",
                                  static_cast<std::int64_t>(done));
        save_checkpoint(sampler, steps, done, cloud_rounds, window_train_loss,
                        window_participants, metrics);
      }
      // CI/test harness: simulate preemption by hard-killing the process the
      // moment the first periodic snapshot at or past `kill_at` is durable.
      // SIGKILL on purpose — no destructors, no stream flushes, exactly the
      // crash the resume path must survive.
      if (periodic && options_.checkpoint.kill_at > 0 &&
          done >= options_.checkpoint.kill_at) {
        ::kill(::getpid(), SIGKILL);
      }
    }

    // Test/CI harness: freeze the coordinator so the heartbeat stops
    // advancing — the deterministic hang a supervisor's watchdog must
    // detect and SIGKILL. pause() returns on caught signals; looping keeps
    // the freeze absolute short of SIGKILL.
    if (options_.hang_at > 0 && done >= options_.hang_at) {
      common::log_warn("harness: hanging forever at step ", done,
                       " (hang_at=", options_.hang_at, ")");
      for (;;) ::pause();
    }

    if (drain) {
      interrupted_at_ = done;
      break;
    }

    // Telemetry upkeep at the step barrier: no parallel section is running,
    // so draining the worker rings is race-free, and the heartbeat reflects
    // a fully-completed step.
    if (profiler_ != nullptr) profiler_->merge_thread_rings();
    if (resources_ != nullptr) resources_->maybe_sample();
    if (status_ != nullptr) status_->maybe_write(heartbeat(done));
  }
  if (observer_ != nullptr) {
    const CommunicationCost& cost = transport_.cost();
    obs::RunEndEvent event;
    event.steps = steps;
    event.cloud_rounds = cloud_rounds;
    event.phases = &timers_;
    event.registry = &registry_;
    event.ledger = &cost.ledger;
    event.assumed_fp32_bytes = cost.assumed_fp32_bytes();
    event.mixed_model_sizes = cost.mixed_model_sizes;
    observer_->on_run_end(event);
  }

  // Final telemetry flush: last resource sample, terminal heartbeat
  // (finished=true forces a write regardless of the interval), and the
  // Chrome trace export. Export failures must not fail the run — the
  // simulation result is already complete.
  if (resources_ != nullptr) resources_->force_sample();
  if (status_ != nullptr) {
    obs::StatusSnapshot snap = heartbeat(interrupted_at_.value_or(steps));
    // A drained (stop_flag) run is terminal but not finished; its final
    // document bypasses the interval gate, and the AbortScope above then
    // upgrades it with aborted=true on scope exit.
    snap.finished = !interrupted_at_.has_value();
    if (snap.finished) {
      status_->maybe_write(snap);
    } else {
      status_->write_now(snap);
    }
  }
  if (profiler_ != nullptr) {
    profile_export_ok_ = profiler_->write_chrome_trace(
        options_.profile.trace_path, resources_.get());
    if (!profile_export_ok_) {
      common::log_warn("profile: failed to write Chrome trace to ",
                       options_.profile.trace_path);
    }
  }
  return metrics;
}

}  // namespace mach::hfl
