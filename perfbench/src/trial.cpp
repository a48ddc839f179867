#include "trial.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "ledger.hpp"
#include "mars/mars.hpp"
#include "mars/system_registry.hpp"
#include "net/observer.hpp"
#include "net/partition.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

using mars::sim::Time;

/// Counts egress services per switch. Each switch has its own padded
/// slot, so shard threads never write the same cache line.
class HopCounter final : public mars::net::PacketObserver {
 public:
  explicit HopCounter(std::size_t switches) : slots_(switches) {}

  void on_egress(mars::net::SwitchContext& ctx, mars::net::Packet& /*pkt*/,
                 mars::net::PortId /*out*/, Time /*hop_latency*/) override {
    ++slots_[ctx.id].hops;
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.hops;
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::uint64_t hops = 0;
  };
  std::vector<Slot> slots_;
};

bool same_culprit(const mars::rca::Culprit& a, const mars::rca::Culprit& b) {
  return a.level == b.level && a.location == b.location && a.port == b.port &&
         a.flow == b.flow && a.cause == b.cause && a.score == b.score;
}

bool same_culprits(const mars::rca::CulpritList& a,
                   const mars::rca::CulpritList& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), same_culprit);
}

void compare_net(const char* what, const mars::net::NetworkStats& a,
                 const mars::net::NetworkStats& b,
                 std::vector<std::string>& diffs) {
  if (a.injected != b.injected || a.delivered != b.delivered ||
      a.dropped != b.dropped || a.unroutable != b.unroutable) {
    diffs.push_back(std::string(what) + ": NetworkStats differ");
  }
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerTimer::Scope::Scope(LayerTimer* timer, std::string layer)
    : timer_(timer), layer_(std::move(layer)) {
  if (timer_ == nullptr) return;
  span_.emplace(timer_->tracer_->wall_span(layer_, "perfbench"));
  start_ = now_s();
}

LayerTimer::Scope::~Scope() {
  if (timer_ == nullptr) return;
  timer_->spans_.emplace_back(std::move(layer_), now_s() - start_);
}

TrialRecord run_trial(const mars::ScenarioConfig& config,
                      const TrialOptions& options) {
  TrialRecord trial;
  LayerTimer timer(options.tracer);
  const double trial_start = now_s();
  {
    std::optional<mars::obs::SpanTracer::WallSpan> trial_span;
    if (options.tracer != nullptr) {
      trial_span.emplace(options.tracer->wall_span("trial", "perfbench"));
    }

    {
      auto scope = timer.scope("mars.validate");
      if (const auto errors = mars::validate_scenario(config);
          !errors.empty()) {
        throw std::invalid_argument("scenario config invalid: " +
                                    errors.front());
      }
    }

    const bool sharded = config.sim.shards >= 1;
    std::unique_ptr<mars::net::BuiltFabric> fabric;
    std::optional<mars::net::Partition> partition;
    std::unique_ptr<mars::sim::Simulator> simulator;
    std::unique_ptr<mars::parallel::ThreadPool> pool;
    std::unique_ptr<mars::sim::ShardedSimulator> ssim;
    std::unique_ptr<mars::net::Network> network;
    {
      auto scope = timer.scope("net.build");
      fabric = std::make_unique<mars::net::BuiltFabric>(
          mars::net::TopologyRegistry::instance().build(config.topology));
    }
    if (sharded) {
      auto scope = timer.scope("net.partition");
      partition = mars::net::partition_topology(fabric->topology,
                                                config.sim.shards);
      mars::sim::ShardedConfig shard_config;
      shard_config.shards = config.sim.shards;
      shard_config.control_latency = config.sim.control_latency;
      shard_config.lookahead = config.sim.control_latency;
      if (!partition->boundary_links.empty()) {
        shard_config.lookahead = std::min(shard_config.lookahead,
                                          partition->min_boundary_propagation);
      }
      pool = std::make_unique<mars::parallel::ThreadPool>(
          static_cast<std::size_t>(config.sim.shards));
      ssim = std::make_unique<mars::sim::ShardedSimulator>(*pool,
                                                           shard_config);
    }
    {
      auto scope = timer.scope("net.network");
      if (sharded) {
        network = std::make_unique<mars::net::Network>(
            *ssim, fabric->topology, *partition);
      } else {
        simulator = std::make_unique<mars::sim::Simulator>();
        network = std::make_unique<mars::net::Network>(*simulator,
                                                       fabric->topology);
      }
      for (mars::net::SwitchId sw = 0; sw < network->switch_count(); ++sw) {
        network->node(sw).set_queue_capacity(config.queue_capacity);
      }
    }

    std::vector<std::unique_ptr<mars::systems::TelemetrySystem>> deployed;
    deployed.reserve(config.systems.size());
    trial.systems.resize(config.systems.size());
    mars::MarsSystem* mars_system = nullptr;
    for (std::size_t i = 0; i < config.systems.size(); ++i) {
      const std::string& name = config.systems[i];
      auto scope = timer.scope("mars.deploy." + name);
      const double t0 = now_s();
      deployed.push_back(mars::SystemRegistry::instance().create(
          name, *network, config, nullptr));
      trial.systems[i].name = name;
      trial.systems[i].deploy_s = now_s() - t0;
      if (name == "mars") {
        mars_system = dynamic_cast<mars::MarsSystem*>(deployed.back().get());
      }
    }
    std::optional<HopCounter> hops;
    if (options.count_hops) {
      hops.emplace(network->switch_count());
      network->add_observer(*hops);
    }

    std::unique_ptr<mars::workload::TrafficGenerator> traffic;
    std::unique_ptr<mars::faults::FaultInjector> injector;
    {
      auto scope = timer.scope("workload.setup");
      traffic = std::make_unique<mars::workload::TrafficGenerator>(
          *network, config.seed);
      traffic->add_background(config.background, fabric->edge, fabric->pods);
    }
    {
      auto scope = timer.scope("faults.setup");
      injector = std::make_unique<mars::faults::FaultInjector>(
          *network, *traffic, config.seed ^ 0xFA17, config.injector);
      // run_scenario attaches the channel on the legacy engine only.
      if (!sharded) {
        for (auto& system : deployed) {
          if (auto* channel = system->control_channel(); channel != nullptr) {
            injector->attach_channel(channel);
            break;
          }
        }
      }
    }
    {
      auto scope = timer.scope("workload.start");
      for (auto& system : deployed) system->start();
      traffic->start();
    }
    {
      auto scope = timer.scope("faults.apply");
      injector->apply(config.faults);
    }

    trial.duration = config.duration;
    trial.fault_at = config.first_fault_at();
    {
      auto scope = timer.scope("sim.run");
      const auto run_to = [&](Time until) {
        if (sharded) {
          ssim->run(until);
        } else {
          simulator->run(until);
        }
      };
      const double run_start = now_s();
      if (mars_system != nullptr && !config.faults.empty() &&
          trial.fault_at > 0) {
        run_to(trial.fault_at - 1);
        const double fault_wall = now_s();
        const Time epoch =
            std::max<Time>(1, config.mars.pipeline.epoch_period);
        std::vector<Slice> slices;
        Time reached = trial.fault_at - 1;
        while (reached < config.duration) {
          reached = std::min(config.duration, reached + epoch);
          run_to(reached);
          slices.push_back(Slice{reached, now_s()});
          const auto& diagnoses = mars_system->diagnoses();
          const auto first = std::find_if(
              diagnoses.begin(), diagnoses.end(),
              [&](const mars::Diagnosis& d) {
                return d.session.trigger.when >= trial.fault_at;
              });
          if (first != diagnoses.end()) {
            trial.trigger_at = first->session.trigger.when;
            trial.report_at = first->session.collected_at;
            trial.report_wall_s =
                report_wall_s(slices, fault_wall, *trial.report_at);
            break;
          }
        }
      }
      run_to(config.duration);
      trial.sim_run_s = now_s() - run_start;
    }
    // Gray faults fill in their manifestation accounting during the run,
    // so the ground truths are read after it, as run_scenario does.
    trial.truths = injector->injected();
    trial.fault_injected =
        !config.faults.empty() && trial.truths.size() == config.faults.size();
    trial.net = network->stats();
    trial.packets_injected = traffic->packets_injected();
    if (sharded) {
      trial.events = ssim->events_executed();
      trial.sync = ssim->sync_stats();
      trial.mailbox_mail = network->mailbox_stats().total_mail;
    } else {
      trial.events = simulator->events_executed();
    }
    if (hops) trial.hops = hops->total();

    // Grading, as run_scenario's result assembly does it.
    mars::systems::DiagnosisQuery query;
    query.fault_start = trial.fault_at;
    query.now = sharded ? ssim->global().now() : simulator->now();
    if (!config.faults.empty()) {
      const mars::faults::FaultEvent& first = config.faults.events.front();
      query.hint = first.kind;
      const Time fault_len =
          first.duration > 0 ? first.duration : config.injector.duration;
      query.incident_end = std::min(query.now, first.at + fault_len);
    }
    for (std::size_t i = 0; i < deployed.size(); ++i) {
      SystemRecord& record = trial.systems[i];
      {
        auto scope = timer.scope("mars.diagnose." + record.name);
        const double t0 = now_s();
        record.culprits = deployed[i]->diagnose(query);
        record.diagnose_s = now_s() - t0;
      }
      {
        auto scope = timer.scope("systems.overheads." + record.name);
        record.triggered = deployed[i]->triggered();
        const auto oh = deployed[i]->overheads();
        record.telemetry_bytes = oh.telemetry_bytes;
        record.diagnosis_bytes = oh.diagnosis_bytes;
      }
      auto scope = timer.scope("metrics.grade");
      const mars::metrics::MatchOptions match = deployed[i]->match_options();
      for (const auto& truth : trial.truths) {
        record.ranks.push_back(
            mars::metrics::rank_of_truth(record.culprits, truth, match));
      }
    }

    if (mars_system != nullptr) {
      auto scope = timer.scope("control.sessions");
      const mars::metrics::MatchOptions match = mars_system->match_options();
      for (const mars::Diagnosis& d : mars_system->diagnoses()) {
        SessionRecord s;
        s.trigger_at = d.session.trigger.when;
        s.collected_at = d.session.collected_at;
        s.records = d.session.records.size();
        s.patterns = d.mining.patterns;
        s.nodes_expanded = d.mining.nodes_expanded;
        s.mine_s = d.mining.wall_seconds;
        for (const auto& truth : trial.truths) {
          if (mars::metrics::rank_of_truth(d.culprits, truth, match)) {
            s.useful = true;
          }
        }
        trial.sessions.push_back(s);
      }
    }
    if (mars_system != nullptr && options.tracer != nullptr) {
      // Not a layer of the trial: timed per session, outside the spans.
      const auto& diagnoses = mars_system->diagnoses();
      for (std::size_t i = 0; i < diagnoses.size(); ++i) {
        const double t0 = now_s();
        const auto replay =
            mars_system->analyzer().analyze_with_stats(diagnoses[i].session);
        trial.sessions[i].replay_s = now_s() - t0;
        trial.sessions[i].replay_match =
            same_culprits(replay.culprits, diagnoses[i].culprits);
      }
    }

    {
      auto scope = timer.scope("teardown");
      injector.reset();
      traffic.reset();
      deployed.clear();
      network.reset();
      ssim.reset();
      pool.reset();
      simulator.reset();
      fabric.reset();
    }
  }
  trial.wall_s = now_s() - trial_start;
  for (const SessionRecord& s : trial.sessions) trial.wall_s -= s.replay_s;
  trial.layers = timer.spans();
  return trial;
}

std::vector<std::string> compare_with_reference(
    const TrialRecord& trial, const mars::ScenarioResult& reference) {
  std::vector<std::string> diffs;
  if (trial.events != reference.events_executed) {
    diffs.push_back("events_executed " + std::to_string(trial.events) +
                    " vs run_scenario " +
                    std::to_string(reference.events_executed));
  }
  if (trial.packets_injected != reference.packets_injected) {
    diffs.push_back("packets_injected differ");
  }
  compare_net("run_scenario", trial.net, reference.net_stats, diffs);
  if (trial.systems.size() != reference.systems.size()) {
    diffs.push_back("deployed system count differs");
    return diffs;
  }
  for (std::size_t i = 0; i < trial.systems.size(); ++i) {
    const SystemRecord& ours = trial.systems[i];
    const mars::SystemOutcome& ref = reference.systems[i];
    if (ours.name != ref.system) {
      diffs.push_back("system order differs at " + std::to_string(i));
      continue;
    }
    if (!same_culprits(ours.culprits, ref.culprits)) {
      diffs.push_back(ours.name + ": culprit list differs");
    }
    if (ours.ranks != ref.ranks) {
      diffs.push_back(ours.name + ": ranks differ");
    }
  }
  return diffs;
}

std::vector<std::string> compare_trials(const TrialRecord& a,
                                        const TrialRecord& b) {
  std::vector<std::string> diffs;
  if (a.events != b.events) diffs.push_back("events_executed differ");
  if (a.packets_injected != b.packets_injected) {
    diffs.push_back("packets_injected differ");
  }
  compare_net("repeat", a.net, b.net, diffs);
  if (a.report_at != b.report_at) diffs.push_back("report time differs");
  if (a.systems.size() != b.systems.size()) {
    diffs.push_back("deployed system count differs");
    return diffs;
  }
  for (std::size_t i = 0; i < a.systems.size(); ++i) {
    if (!same_culprits(a.systems[i].culprits, b.systems[i].culprits) ||
        a.systems[i].ranks != b.systems[i].ranks ||
        a.systems[i].telemetry_bytes != b.systems[i].telemetry_bytes ||
        a.systems[i].diagnosis_bytes != b.systems[i].diagnosis_bytes) {
      diffs.push_back(a.systems[i].name + ": outcome differs on repeat");
    }
  }
  return diffs;
}

}  // namespace perfbench
