#include "serve/serve_sim.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/trace_ids.hpp"
#include "util/check.hpp"

namespace nocw::serve {

namespace {

/// The batch currently occupying the accelerator; no requests = idle.
struct Flight {
  std::vector<Request> requests;  ///< all of one class
  std::size_t class_id = 0;
  std::uint64_t start = 0;
  std::uint64_t finish = 0;
};

}  // namespace

void ServeResult::check_invariants() const {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  for (const ClassServeStats& c : per_class) {
    NOCW_CHECK_EQ(c.offered, c.admitted + c.shed);
    NOCW_CHECK_EQ(c.completed, c.admitted);  // the driver drains fully
    offered += c.offered;
    admitted += c.admitted;
    shed += c.shed;
    completed += c.completed;
  }
  NOCW_CHECK_EQ(aggregate.offered, offered);
  NOCW_CHECK_EQ(aggregate.admitted, admitted);
  NOCW_CHECK_EQ(aggregate.shed, shed);
  NOCW_CHECK_EQ(aggregate.completed, completed);
  NOCW_CHECK_EQ(aggregate.latency.count, completed);
}

ServeSim::ServeSim(const ServeConfig& cfg, std::vector<RequestClass> classes)
    : cfg_(cfg), classes_(std::move(classes)), sim_(cfg.accel) {
  NOCW_CHECK(!classes_.empty());
  NOCW_CHECK_GT(cfg_.batch.max_batch, 0u);
  profiles_.reserve(classes_.size());
  for (const RequestClass& cls : classes_) {
    const accel::CompressionPlan* plan =
        cls.plan.empty() ? nullptr : &cls.plan;
    const accel::InferenceResult full = sim_.simulate(cls.summary, plan);
    const accel::CompressionPlan resident =
        accel::resident_weights_plan(cls.summary);
    const accel::InferenceResult marginal =
        sim_.simulate(cls.summary, &resident);
    ServiceProfile p;
    p.full_cycles = units::round_cycles(full.latency.total());
    p.marginal_cycles = units::round_cycles(marginal.latency.total());
    p.full_energy_j = full.energy.total();
    p.marginal_energy_j = marginal.energy.total();
    NOCW_CHECK_GT(p.full_cycles.value(), 0u);
    // Residency only removes weight traffic and decompression; it can
    // never make an inference slower.
    NOCW_CHECK_LE(p.marginal_cycles.value(), p.full_cycles.value());
    profiles_.push_back(p);

    // Span-layout templates for the trace sink: the same full/marginal
    // results, flattened into the simulator's phase-span geometry once, so
    // per-request tree synthesis never re-simulates anything.
    ClassTraceTemplate tpl;
    tpl.class_name = cls.name;
    tpl.full = layout_spans(full, plan);
    tpl.marginal = layout_spans(marginal, &resident);
    trace_templates_.push_back(std::move(tpl));
  }
}

ServeResult ServeSim::run(std::span<const Arrival> arrivals,
                          std::string_view scheduler_name,
                          obs::TimeSeriesSet* series) const {
  return run(arrivals, *make_scheduler(scheduler_name), series);
}

ServeResult ServeSim::run(std::span<const Arrival> arrivals,
                          const Scheduler& scheduler,
                          obs::TimeSeriesSet* series) const {
  RunHooks hooks;
  hooks.series = series;
  return run(arrivals, scheduler, hooks);
}

ServeResult ServeSim::run(std::span<const Arrival> arrivals,
                          const Scheduler& scheduler,
                          const RunHooks& hooks) const {
  obs::TimeSeriesSet* series = hooks.series;
  // Hooks observe the stream; nothing below feeds their state back into a
  // decision, which is what keeps this overload bit-identical to the
  // hook-less one (bench/ext_reqtrace gates it).
  const bool hooked = hooks.slo != nullptr || hooks.traces != nullptr;
  const std::uint64_t max_batch = cfg_.batch.max_batch;
  const std::uint64_t max_wait = cfg_.batch.max_wait.value();

  AdmissionQueue queue(cfg_.queue, classes_.size());
  std::vector<std::vector<double>> class_latency(classes_.size());
  std::vector<double> all_latency;
  std::vector<std::uint64_t> offered(classes_.size(), 0);
  for (const Arrival& a : arrivals) {
    NOCW_CHECK_LT(a.class_id, classes_.size());
    ++offered[a.class_id];
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    class_latency[c].reserve(offered[c]);
  }
  all_latency.reserve(arrivals.size());

  const auto sample_depth = [&](std::uint64_t cycle) {
    if (series != nullptr) {
      series->append("serve.queue_depth", "requests", cycle,
                     static_cast<double>(queue.size()));
    }
  };

  std::uint64_t now = 0;
  std::size_t next_arrival = 0;
  std::uint64_t next_id = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t makespan = 0;
  // One buffer reused by every batch: dispatch refills it, retire empties
  // it, so only the first batch allocates.
  Flight flight;

  while (true) {
    // (1) Admit every arrival due at or before `now`. The clock only ever
    // jumps *to* event cycles, so each arrival is admitted at exactly its
    // own cycle stamp.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].cycle <= now) {
      const Arrival& a = arrivals[next_arrival];
      Request r;
      r.id = next_id++;
      r.class_id = a.class_id;
      r.arrival_cycle = a.cycle;
      const std::optional<RejectReason> rejected = queue.offer(r);
      if (rejected.has_value()) {
        obs::TraceContext root;
        if (hooked) root = request_trace_context(hooks.trace_seed, r.id);
        {
          const obs::ScopedTraceContext tctx(root);
          NOCW_TRACE_INSTANT_ARG(obs::kCatServe,
                                 "serve.shed:" + classes_[r.class_id].name,
                                 obs::kPidServe,
                                 static_cast<std::uint32_t>(r.class_id),
                                 a.cycle, "request",
                                 static_cast<double>(r.id));
        }
        if (hooked) {
          obs::SloIngest ingest;
          if (hooks.slo != nullptr) {
            ingest = hooks.slo->on_shed(r.class_id, a.cycle, root.trace_id);
          }
          if (hooks.traces != nullptr) {
            TraceSeed seed;
            seed.request_id = r.id;
            seed.class_id = r.class_id;
            seed.shed = true;
            seed.root = root;
            seed.arrival_cycle = a.cycle;
            hooks.traces->ingest_shed(ingest, seed);
          }
        }
      } else {
        NOCW_TRACE_INSTANT_ARG(obs::kCatServe,
                               "serve.enqueue:" + classes_[r.class_id].name,
                               obs::kPidServe,
                               static_cast<std::uint32_t>(r.class_id),
                               a.cycle, "request", static_cast<double>(r.id));
        sample_depth(a.cycle);
      }
      ++next_arrival;
    }

    // (2) Retire the in-flight batch once its finish cycle is reached.
    if (!flight.requests.empty() && now >= flight.finish) {
      for (std::size_t j = 0; j < flight.requests.size(); ++j) {
        Request& r = flight.requests[j];
        r.finish_cycle = flight.finish;
        const std::uint64_t latency_cycles =
            r.finish_cycle - r.arrival_cycle;
        const auto latency = static_cast<double>(latency_cycles);
        class_latency[r.class_id].push_back(latency);
        all_latency.push_back(latency);
        obs::TraceContext root;
        if (hooked) root = request_trace_context(hooks.trace_seed, r.id);
        {
          const obs::ScopedTraceContext tctx(root);
          NOCW_TRACE_SPAN_ARG(obs::kCatServe,
                              "serve.request:" + classes_[r.class_id].name,
                              obs::kPidServe,
                              static_cast<std::uint32_t>(r.class_id),
                              r.arrival_cycle, latency_cycles, "request",
                              static_cast<double>(r.id));
        }
        if (hooked) {
          obs::SloIngest ingest;
          if (hooks.slo != nullptr) {
            ingest = hooks.slo->on_complete(r.class_id, r.finish_cycle,
                                            latency_cycles, root.trace_id);
          }
          if (hooks.traces != nullptr) {
            // Batch geometry for the service span: the seed (j = 0) owns
            // the full-cost layout, followers serialize marginal slots
            // after it (batch cost = full + (n-1)*marginal).
            const std::uint64_t full =
                profiles_[flight.class_id].full_cycles.value();
            const std::uint64_t marginal =
                profiles_[flight.class_id].marginal_cycles.value();
            const std::uint64_t svc_start =
                j == 0 ? flight.start
                       : flight.start + full +
                             (static_cast<std::uint64_t>(j) - 1) * marginal;
            const std::uint64_t svc_dur = j == 0 ? full : marginal;
            TraceSeed seed;
            seed.request_id = r.id;
            seed.class_id = r.class_id;
            seed.marginal_layout = j > 0;
            seed.root = root;
            seed.arrival_cycle = r.arrival_cycle;
            seed.batch_start = flight.start;
            seed.svc_start = svc_start;
            seed.svc_dur = svc_dur;
            seed.finish_cycle = r.finish_cycle;
            seed.latency_cycles = latency_cycles;
            hooks.traces->ingest_complete(ingest, seed);
          }
        }
      }
      makespan = flight.finish;
      flight.requests.clear();
    }

    if (!flight.requests.empty()) {
      // Accelerator busy: jump to the next arrival or the batch finish,
      // whichever comes first.
      std::uint64_t next = flight.finish;
      if (next_arrival < arrivals.size()) {
        next = std::min(next, arrivals[next_arrival].cycle);
      }
      now = next;
      continue;
    }

    // (3) Accelerator idle.
    if (queue.empty()) {
      if (next_arrival >= arrivals.size()) break;  // drained
      now = arrivals[next_arrival].cycle;
      continue;
    }

    // The queue is in arrival order, so index 0 is the longest waiter; its
    // deadline bounds how long any batch formation may stall.
    const std::uint64_t deadline =
        queue.pending().front().arrival_cycle + max_wait;
    const bool no_more_arrivals = next_arrival >= arrivals.size();
    const bool start = queue.size() >= max_batch || now >= deadline ||
                       no_more_arrivals;
    if (!start) {
      std::uint64_t next = deadline;
      if (next_arrival < arrivals.size()) {
        next = std::min(next, arrivals[next_arrival].cycle);
      }
      now = next;
      continue;
    }

    // Dispatch: the scheduler seeds the batch, same-class requests join in
    // arrival order up to max_batch.
    const std::size_t seed_index = scheduler.pick(queue, classes_, profiles_);
    flight.requests.push_back(queue.take(seed_index));
    flight.class_id = flight.requests.front().class_id;
    std::size_t scan = 0;
    while (flight.requests.size() < max_batch && scan < queue.size()) {
      if (queue.pending()[scan].class_id == flight.class_id) {
        flight.requests.push_back(queue.take(scan));
      } else {
        ++scan;
      }
    }
    const auto n = static_cast<std::uint64_t>(flight.requests.size());
    const units::Cycles service = profiles_[flight.class_id].batch_cycles(n);
    flight.start = now;
    flight.finish = now + service.value();
    for (Request& r : flight.requests) r.start_cycle = now;
    ++batches;
    batched_requests += n;
    sample_depth(now);
    // The batch is attributed to its seed request's service span: the seed
    // owns the full-cost replay, so the accel/noc phase spans below land
    // re-parented under exactly the tree serve/reqtrace synthesizes for it.
    obs::TraceContext batch_ctx;
    if (hooked) {
      const obs::TraceContext seed_root =
          request_trace_context(hooks.trace_seed, flight.requests.front().id);
      batch_ctx = obs::derive_child(seed_root, 2);
    }
    const obs::ScopedTraceContext batch_tctx(batch_ctx);
    NOCW_TRACE_SPAN_ARG(obs::kCatServe,
                        "serve.batch:" + classes_[flight.class_id].name,
                        obs::kPidServe,
                        static_cast<std::uint32_t>(flight.class_id), now,
                        service.value(), "requests", static_cast<double>(n));
    if (NOCW_TRACE_ON(obs::kCatServe)) {
      // Trace-only replay: stitch the accelerator's own layer/phase spans
      // inside this batch span on the serving timeline. Results are
      // discarded — timing always comes from the profiles — and simulation
      // is pure, so this cannot change any reported number.
      obs::ScopedTimeBase batch_base(obs::time_base() + now);
      const RequestClass& cls = classes_[flight.class_id];
      const accel::CompressionPlan* plan =
          cls.plan.empty() ? nullptr : &cls.plan;
      (void)sim_.simulate(cls.summary, plan);
    }
  }

  // Close the monitor's final windows, then let the sink promote its
  // pending exemplar pins for them.
  if (hooks.slo != nullptr) hooks.slo->finish();
  if (hooks.traces != nullptr) hooks.traces->finish(trace_templates_);

  // Assemble per-class and aggregate statistics.
  ServeResult result;
  result.scheduler = std::string(scheduler.name());
  result.per_class.resize(classes_.size());
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    ClassServeStats& s = result.per_class[c];
    s.name = classes_[c].name;
    s.tenant = classes_[c].tenant;
    s.offered = offered[c];
    s.shed = queue.shed_for_class(c);
    s.admitted = s.offered - s.shed;
    s.completed = static_cast<std::uint64_t>(class_latency[c].size());
    s.shed_rate = s.offered > 0
                      ? static_cast<double>(s.shed) /
                            static_cast<double>(s.offered)
                      : 0.0;
    s.latency = tail_percentiles(class_latency[c]);
  }
  ClassServeStats& agg = result.aggregate;
  agg.name = "all";
  agg.tenant = -1;
  for (const ClassServeStats& s : result.per_class) {
    agg.offered += s.offered;
    agg.admitted += s.admitted;
    agg.shed += s.shed;
    agg.completed += s.completed;
  }
  agg.shed_rate = agg.offered > 0 ? static_cast<double>(agg.shed) /
                                        static_cast<double>(agg.offered)
                                  : 0.0;
  agg.latency = tail_percentiles(all_latency);
  result.batches = batches;
  result.mean_batch_size =
      batches > 0 ? static_cast<double>(batched_requests) /
                        static_cast<double>(batches)
                  : 0.0;
  result.makespan = units::Cycles{makespan};
  if (makespan > 0) {
    const units::Seconds secs = units::seconds_at(
        units::FracCycles{static_cast<double>(makespan)},
        cfg_.accel.noc.clock_ghz);
    result.goodput_rps =
        static_cast<double>(agg.completed) / secs.value();
  }
  result.check_invariants();
  return result;
}

}  // namespace nocw::serve
