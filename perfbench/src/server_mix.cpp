// The server workload: pedsim_server with 2 executors, driven closed-loop
// by 3 client connections that each keep one job in flight. Jobs come in
// rounds of 80 with a fixed class make-up and seeded contents:
//
//   36  registry scenario by name on cpu (every small built-in twice)
//   16  registry scenario on sharded-cpu:2
//   10  gpu-simt on a small built-in, 20-60 steps
//   17  generated event-heavy text from a fixed pool of 8 (cache hits)
//    1  one of 12 further generated texts, taken in turn: never seen in
//       rounds 0-11 (a cache miss that builds fields and grows the cache),
//       a hit after that
//
// The never-seen texts are a fixed number per run, not one per round,
// because the server's cache has no bound: one new entry per round would
// make peak RSS grow with throughput.
//
// One op is one job, timed by the client from submit to kDone. setup_s
// is the time from launching the server to the end of a warm-up pass
// that submits every pooled scenario once (a cold cache fill); the run
// launches the server kSetupLaunches times, the measured launch in the
// middle, and reports the median.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/device.hpp"
#include "checks.hpp"
#include "core/gpu_simulator.hpp"
#include "generator.hpp"
#include "io/scenario_file.hpp"
#include "layers.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "server/client.hpp"

namespace perfbench {

namespace {

namespace proto = pedsim::server::protocol;
using pedsim::backend::DeviceType;
using pedsim::core::Model;

constexpr int kConnections = 3;
constexpr int kExecutors = 2;
constexpr int kPoolTexts = 8;
constexpr int kFreshTexts = 12;
constexpr int kRoundJobs = 80;
constexpr int kSetupLaunches = 7;
constexpr double kTracedSeconds = 3.0;

enum class JobClass { kRegistry, kSharded, kSimt, kPoolText, kFreshText };
constexpr const char* kClassNames[] = {"registry", "sharded", "simt",
                                       "pool_text", "fresh_text"};
constexpr int kClasses = 5;

struct Job {
    JobClass cls = JobClass::kRegistry;
    proto::JobRequest req;
};

/// Everything the workload submits, generated from the run seed.
class Inputs {
  public:
    explicit Inputs(std::uint64_t seed) : seed_(seed) {
        for (const auto& name : pedsim::scenario::names()) {
            // The 480x480 corridor has workloads of its own.
            if (name == "paper_corridor") continue;
            const auto s = pedsim::scenario::get(name);
            registry_.push_back({name, s.sim.model, s.default_steps});
        }
        for (int i = 0; i < kPoolTexts; ++i) {
            pool_.push_back(generate_scenario(
                derive(seed, 3, static_cast<std::uint64_t>(i)),
                "pool_" + std::to_string(i)));
        }
        for (int i = 0; i < kFreshTexts; ++i) {
            fresh_.push_back(generate_scenario(
                derive(seed, 4, static_cast<std::uint64_t>(i)),
                "fresh_" + std::to_string(i)));
        }
    }

    struct Builtin {
        std::string name;
        Model model;
        int default_steps;
    };
    [[nodiscard]] const std::vector<Builtin>& registry() const {
        return registry_;
    }
    [[nodiscard]] const std::vector<GeneratedScenario>& pool() const {
        return pool_;
    }
    [[nodiscard]] const std::vector<GeneratedScenario>& fresh() const {
        return fresh_;
    }

    /// The 80 jobs of round `r`, in seeded submission order.
    [[nodiscard]] std::vector<Job> round(int r) const {
        Rng rng(derive(seed_, 5, static_cast<std::uint64_t>(r)));
        std::vector<Job> jobs;
        const auto builtin = [&](JobClass cls, const Builtin& b,
                                 pedsim::backend::EngineSelect engine,
                                 int steps) {
            Job j;
            j.cls = cls;
            j.req.registry = true;
            j.req.scenario = b.name;
            j.req.engine = engine;
            j.req.model = b.model;
            j.req.seed = rng.next();
            j.req.steps = steps;
            jobs.push_back(std::move(j));
        };
        const auto budget = [&](const Builtin& b) {
            return b.default_steps / 2 + rng.range(0, b.default_steps / 2);
        };
        for (int k = 0; k < 2; ++k) {
            for (const auto& b : registry_) {
                builtin(JobClass::kRegistry, b, DeviceType::kCpu, budget(b));
            }
        }
        for (int k = 0; k < 16; ++k) {
            const auto& b = registry_[static_cast<std::size_t>(
                rng.range(0, static_cast<int>(registry_.size()) - 1))];
            builtin(JobClass::kSharded, b, {DeviceType::kShardedCpu, 2},
                    budget(b));
        }
        static const char* const kSimtScenarios[] = {
            "corridor_small", "bottleneck_doorway", "pillar_field",
            "room_evacuation", "timed_exit", "relay_race"};
        for (int k = 0; k < 10; ++k) {
            const auto& name = kSimtScenarios[rng.range(0, 5)];
            const auto it = std::find_if(
                registry_.begin(), registry_.end(),
                [&](const Builtin& b) { return b.name == name; });
            builtin(JobClass::kSimt, *it, DeviceType::kSimt, rng.range(20, 60));
        }
        const auto text = [&](JobClass cls, const std::string& body) {
            Job j;
            j.cls = cls;
            j.req.scenario = body;
            j.req.engine = DeviceType::kCpu;
            j.req.model = rng.chance(0.5) ? Model::kAco : Model::kLem;
            j.req.seed = rng.next();
            j.req.steps = rng.range(150, 190);
            jobs.push_back(std::move(j));
        };
        for (int k = 0; k < 17; ++k) {
            text(JobClass::kPoolText,
                 pool_[static_cast<std::size_t>(rng.range(0, kPoolTexts - 1))]
                     .text);
        }
        text(JobClass::kFreshText,
             fresh_[static_cast<std::size_t>(r % kFreshTexts)].text);
        for (std::size_t i = jobs.size(); i > 1; --i) {
            std::swap(jobs[i - 1], jobs[rng.next() % i]);
        }
        return jobs;
    }

    /// One steps=1 job per pooled scenario: the warm-up (cold cache fill).
    [[nodiscard]] std::vector<proto::JobRequest> warmup() const {
        std::vector<proto::JobRequest> reqs;
        for (const auto& b : registry_) {
            proto::JobRequest req;
            req.registry = true;
            req.scenario = b.name;
            req.model = b.model;
            req.seed = 1;
            req.steps = 1;
            reqs.push_back(req);
        }
        for (const auto& g : pool_) {
            proto::JobRequest req;
            req.scenario = g.text;
            req.seed = 1;
            req.steps = 1;
            reqs.push_back(req);
        }
        return reqs;
    }

  private:
    std::uint64_t seed_;
    std::vector<Builtin> registry_;
    std::vector<GeneratedScenario> pool_;
    std::vector<GeneratedScenario> fresh_;
};

std::string cache_identity(const proto::JobRequest& req) {
    return (req.registry ? "registry:" : "text:") + req.scenario;
}

/// Where a traced server writes its Chrome trace and metrics JSON.
std::string trace_path(const Options& opt) {
    return opt.work_dir + "/server_trace.json";
}
std::string metrics_path(const Options& opt) {
    return opt.work_dir + "/server_metrics.json";
}

/// A pedsim_server child process. The destructor kills and reaps a server
/// that was not shut down cleanly, so no run leaves one behind.
class ServerProcess {
  public:
    ServerProcess(const Options& opt, bool traced)
        : socket_(opt.work_dir + "/server.sock") {
        ::unlink(socket_.c_str());
        std::vector<std::string> args = {
            opt.server_bin, "--socket=" + socket_,
            "--threads=" + std::to_string(kExecutors)};
        if (traced) {
            ::unlink(trace_path(opt).c_str());
            ::unlink(metrics_path(opt).c_str());
            args.push_back("--trace=" + trace_path(opt));
            args.push_back("--metrics-json=" + metrics_path(opt));
        }
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        const std::string log = opt.work_dir + "/server.log";
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("cannot fork");
        if (pid_ == 0) {
            // Child: async-signal-safe calls only, up to exec. The server
            // dies with the benchmark, so a killed run leaves none behind.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent) ::_exit(127);
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                  0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        // Ready once a client can connect.
        const double deadline = now_s() + 30.0;
        for (;;) {
            try {
                pedsim::server::Client probe(socket_);
                break;
            } catch (const std::exception&) {
                int status = 0;
                if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                    pid_ = -1;
                    throw std::runtime_error("pedsim_server exited at start");
                }
                if (now_s() > deadline) {
                    throw std::runtime_error("pedsim_server did not listen");
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
    }
    ~ServerProcess() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
    }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    [[nodiscard]] const std::string& socket() const { return socket_; }

    /// Graceful shutdown (kShutdown, drain, exit 0); returns the server's
    /// peak RSS in MB.
    double shutdown() {
        {
            pedsim::server::Client c(socket_);
            c.shutdown_server();
        }
        const double deadline = now_s() + 60.0;
        int status = 0;
        rusage ru{};
        for (;;) {
            const pid_t got = ::wait4(pid_, &status, WNOHANG, &ru);
            if (got == pid_) break;
            if (got < 0 || now_s() > deadline) {
                throw std::runtime_error("pedsim_server did not exit");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("pedsim_server exited with an error");
        }
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/// Per-job checks that need only the streamed result.
void check_remote(const pedsim::server::RemoteResult& r,
                  const proto::JobRequest& req, Checks& checks) {
    const std::string label = "server job " + std::to_string(r.job_id);
    checks.expect(!r.failed, label + " failed: " + r.error);
    if (r.failed) return;
    std::size_t top = 0;
    std::size_t bottom = 0;
    bool steps_ok = r.steps.size() == static_cast<std::size_t>(req.steps);
    for (const auto& s : r.steps) {
        top += static_cast<std::size_t>(s.crossed_top);
        bottom += static_cast<std::size_t>(s.crossed_bottom);
        steps_ok = steps_ok && s.moves >= 0 && s.moves <= s.proposals;
    }
    checks.expect(steps_ok, label + ": streamed steps malformed");
    checks.expect(top == r.result.crossed_top &&
                      bottom == r.result.crossed_bottom,
                  label + ": streamed crossings do not sum to the totals");
}

struct Completed {
    Job job;
    pedsim::server::RemoteResult result;
};

struct Phase {
    OpStats ops;
    std::vector<double> accept_s;
    std::vector<double> latency_all_s;  ///< warm-up jobs included
    std::vector<double> class_latency_s[kClasses];
    std::uint64_t jobs = 0;             ///< warm-up jobs included
    std::uint64_t sharded_steps = 0;
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    std::vector<Completed> round0;
    proto::StatsMsg stats;
};

/// Launch-to-warm: start the server and submit every pooled scenario once.
void warm_up(const Inputs& in, const ServerProcess& server, Phase& ph,
             std::set<std::string>& submitted, Checks& checks) {
    pedsim::server::Client c(server.socket());
    for (const auto& req : in.warmup()) {
        const double t0 = now_s();
        const auto sub = c.submit(req);
        checks.expect(sub.accepted, "warm-up job rejected: " + sub.reason);
        if (!sub.accepted) continue;
        const auto r = c.wait_any();
        ph.latency_all_s.push_back(now_s() - t0);
        ++ph.jobs;
        check_remote(r, req, checks);
        submitted.insert(cache_identity(req));
    }
}

/// Closed-loop measurement: kConnections clients, one job in flight each,
/// whole rounds until `seconds` have passed.
void drive(const Inputs& in, const ServerProcess& server, double seconds,
           Phase& ph, std::set<std::string>& submitted, Checks& checks) {
    std::mutex mu;  // guards everything below, ph and checks
    int next = 0;
    int stop = INT_MAX;
    std::vector<std::vector<Job>> rounds;
    const double start = now_s();
    const double deadline = start + seconds;

    const auto take = [&](Job& job) {
        const std::lock_guard<std::mutex> lock(mu);
        if (next >= stop) return -1;
        if (now_s() >= deadline && stop == INT_MAX) {
            stop = (next + kRoundJobs - 1) / kRoundJobs * kRoundJobs;
            if (next >= stop) return -1;
        }
        const int j = next++;
        const int r = j / kRoundJobs;
        if (r >= static_cast<int>(rounds.size())) rounds.push_back(in.round(r));
        job = rounds[static_cast<std::size_t>(r)][j % kRoundJobs];
        return j;
    };

    std::vector<std::thread> threads;
    std::exception_ptr error;
    for (int t = 0; t < kConnections; ++t) {
        threads.emplace_back([&] {
            try {
                pedsim::server::Client c(server.socket());
                Job job;
                for (int j = take(job); j >= 0; j = take(job)) {
                    const double t0 = now_s();
                    const auto sub = c.submit(job.req);
                    const double t1 = now_s();
                    pedsim::server::RemoteResult r;
                    if (sub.accepted) r = c.wait_any();
                    const double t2 = now_s();
                    const std::lock_guard<std::mutex> lock(mu);
                    submitted.insert(cache_identity(job.req));
                    if (!sub.accepted || r.failed) {
                        ++ph.ops.failed;
                        checks.expect(false, "job rejected or failed: " +
                                                 sub.reason + r.error);
                        continue;
                    }
                    ph.ops.latencies_s.push_back(t2 - t0);
                    ph.class_latency_s[static_cast<int>(job.cls)].push_back(
                        t2 - t0);
                    ph.latency_all_s.push_back(t2 - t0);
                    ph.accept_s.push_back(t1 - t0);
                    ++ph.jobs;
                    if (job.cls == JobClass::kSharded) {
                        ph.sharded_steps += r.steps.size();
                        checks.expect(r.bands == 2, "sharded job ran " +
                                                        std::to_string(r.bands) +
                                                        " bands, not 2");
                    }
                    check_remote(r, job.req, checks);
                    if (j < kRoundJobs) {
                        ph.round0.push_back({job, std::move(r)});
                    }
                }
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!error) error = std::current_exception();
            }
        });
    }
    for (auto& t : threads) t.join();
    if (error) std::rethrow_exception(error);
    ph.ops.busy_s = now_s() - start;
    // Per-class latency on stderr: where p50 and p95 fall in the mix.
    for (int c = 0; c < kClasses; ++c) {
        const auto& v = ph.class_latency_s[c];
        std::fprintf(stderr, "server_mix %-10s n=%4zu p50=%7.2f ms p95=%7.2f ms\n",
                     kClassNames[c], v.size(), quantile(v, 0.5) * 1e3,
                     quantile(v, 0.95) * 1e3);
    }
}

/// One server lifetime: launch, warm up, optionally drive the mix, stop.
Phase serve(const Options& opt, const Inputs& in, double seconds, bool traced,
            Checks& checks) {
    Phase ph;
    std::set<std::string> submitted;
    const double t0 = now_s();
    ServerProcess server(opt, traced);
    warm_up(in, server, ph, submitted, checks);
    ph.setup_s = now_s() - t0;
    if (seconds > 0) drive(in, server, seconds, ph, submitted, checks);
    {
        pedsim::server::Client c(server.socket());
        ph.stats = c.stats();
    }
    ph.peak_rss_mb = server.shutdown();
    // Cache misses match: one miss (and one entry) per distinct scenario.
    checks.expect(ph.stats.cache_misses == submitted.size() &&
                      ph.stats.cache_entries == submitted.size(),
                  "server cache: " + std::to_string(ph.stats.cache_misses) +
                      " misses, " + std::to_string(ph.stats.cache_entries) +
                      " entries for " + std::to_string(submitted.size()) +
                      " distinct scenarios");
    checks.expect(ph.stats.rejected == 0 && ph.stats.failed == 0,
                  "server rejected or failed jobs");
    return ph;
}

pedsim::scenario::Scenario scenario_of(const proto::JobRequest& req) {
    return req.registry ? pedsim::scenario::get(req.scenario)
                        : pedsim::io::parse_scenario(req.scenario);
}

/// Server matches in-process: every round-0 job (gpu-simt and sharded
/// ones included) replayed on the in-process cpu engine gives the same
/// step stream, totals and final state; each replay's end state also
/// passes the engine-state checks.
void check_round0(const Phase& ph, Checks& checks) {
    const auto cpu = pedsim::backend::create_device(DeviceType::kCpu);
    for (const auto& [job, remote] : ph.round0) {
        const auto prepared =
            pedsim::scenario::prepare_scenario(scenario_of(job.req));
        auto cfg = prepared.scenario.sim;
        cfg.model = job.req.model;
        cfg.seed = job.req.seed;
        const auto sim = cpu->create_engine(cfg, prepared.schedule);
        const std::string label = "in-process replay of server job " +
                                  std::to_string(remote.job_id);
        bool same = remote.steps.size() ==
                    static_cast<std::size_t>(job.req.steps);
        for (int k = 0; k < job.req.steps; ++k) {
            const auto r = sim->step();
            same = same && r == remote.steps[static_cast<std::size_t>(k)];
        }
        same = same &&
               pedsim::scenario::position_fingerprint(*sim) ==
                   remote.fingerprint &&
               sim->crossed_total(pedsim::grid::Group::kTop) ==
                   remote.result.crossed_top &&
               sim->crossed_total(pedsim::grid::Group::kBottom) ==
                   remote.result.crossed_bottom;
        checks.expect(same, label + ": differs from the server's result");
        check_engine_state(*sim, checks, label);
    }
}

struct TextTimes {
    std::vector<double> parse_ms;
    std::vector<double> prepare_ms;
};

/// Every generated text (pool and never-seen) parses, round-trips through
/// the serializer, and prepares into a schedule whose fields match the
/// generator's own replay.
TextTimes check_texts(const Inputs& in, Checks& checks) {
    TextTimes times;
    std::vector<GeneratedScenario> all = in.pool();
    all.insert(all.end(), in.fresh().begin(), in.fresh().end());
    for (const auto& g : all) {
        const double t0 = now_s();
        const auto s = pedsim::io::parse_scenario(g.text);
        const double t1 = now_s();
        const auto prepared = pedsim::scenario::prepare_scenario(s);
        const double t2 = now_s();
        times.parse_ms.push_back((t1 - t0) * 1e3);
        times.prepare_ms.push_back((t2 - t1) * 1e3);
        checks.expect(pedsim::io::parse_scenario(
                          pedsim::io::scenario_to_text(s)) == s,
                      s.name + ": text does not round-trip");
        check_schedule(*prepared.schedule, g, checks, s.name);
    }
    return times;
}

/// Mean create_engine time with a warm schedule over every pooled scenario.
double warm_create_ms(const Inputs& in) {
    const auto cpu = pedsim::backend::create_device(DeviceType::kCpu);
    std::vector<double> ms;
    std::vector<pedsim::scenario::Scenario> all;
    for (const auto& b : in.registry()) {
        all.push_back(pedsim::scenario::get(b.name));
    }
    for (const auto& g : in.pool()) {
        all.push_back(pedsim::io::parse_scenario(g.text));
    }
    for (const auto& s : all) {
        const auto prepared = pedsim::scenario::prepare_scenario(s);
        const double t0 = now_s();
        const auto sim =
            cpu->create_engine(prepared.scenario.sim, prepared.schedule);
        ms.push_back((now_s() - t0) * 1e3);
    }
    return mean(ms);
}

/// The round-0 gpu-simt jobs run in-process on the SIMT device, for its
/// launch log and modeled time; their end states must match the server's.
void simt_layer(const Phase& ph, LayerExtras& x, Checks& checks) {
    const auto simt = pedsim::backend::create_device(DeviceType::kSimt);
    double host_s = 0.0;
    double modeled_s = 0.0;
    double launches = 0.0;
    double warp = 0.0;
    double global = 0.0;
    double steps = 0.0;
    for (const auto& [job, remote] : ph.round0) {
        if (job.cls != JobClass::kSimt) continue;
        const auto prepared =
            pedsim::scenario::prepare_scenario(scenario_of(job.req));
        auto cfg = prepared.scenario.sim;
        cfg.model = job.req.model;
        cfg.seed = job.req.seed;
        const auto sim = simt->create_engine(cfg, prepared.schedule);
        const double t0 = now_s();
        for (int k = 0; k < job.req.steps; ++k) sim->step();
        host_s += now_s() - t0;
        steps += job.req.steps;
        checks.expect(pedsim::scenario::position_fingerprint(*sim) ==
                          remote.fingerprint,
                      "in-process gpu-simt run differs from the server's");
        const auto* gpu =
            dynamic_cast<const pedsim::core::GpuSimulator*>(sim.get());
        if (gpu == nullptr) continue;
        modeled_s += gpu->modeled_seconds();
        const auto& log = gpu->launch_log();
        launches += static_cast<double>(log.records().size());
        const auto total = log.total_stats();
        warp += static_cast<double>(total.warp_instructions);
        global += static_cast<double>(total.global_transactions);
    }
    if (steps <= 0) return;
    x.simt_host_us_per_step = host_s / steps * 1e6;
    x.simt_modeled_us_per_step = modeled_s / steps * 1e6;
    x.simt_launches = launches / steps;
    x.simt_warp_instructions = warp / steps;
    x.simt_global_transactions = global / steps;
}

}  // namespace

RunOutput run_server_mix(const Options& opt, Checks& checks) {
    const Inputs in(opt.seed);
    RunOutput out;
    if (!opt.trace) {
        // Set-up-only launches before and after the measured one, so
        // setup_s samples the host at both ends of the run.
        std::vector<double> setups;
        for (int i = 0; i < kSetupLaunches / 2; ++i) {
            setups.push_back(serve(opt, in, 0.0, false, checks).setup_s);
        }
        const Phase ph = serve(opt, in, opt.seconds, false, checks);
        setups.push_back(ph.setup_s);
        while (static_cast<int>(setups.size()) < kSetupLaunches) {
            setups.push_back(serve(opt, in, 0.0, false, checks).setup_s);
        }
        check_round0(ph, checks);
        check_texts(in, checks);
        out.attempted = ph.ops.latencies_s.size() + ph.ops.failed;
        out.failed = ph.ops.failed;
        add_end_to_end(out.metrics, figures(ph.ops), median(setups),
                       ph.peak_rss_mb);
        return out;
    }

    // Traced run: one untraced server for half the budget, then one
    // started with --trace/--metrics-json. The traced half is capped: the
    // server's trace grows by about 15 MB of JSON per second.
    const Phase plain = serve(opt, in, opt.seconds / 2, false, checks);
    const Phase traced =
        serve(opt, in, std::min(opt.seconds / 2, kTracedSeconds), true, checks);
    check_round0(traced, checks);
    const TextTimes times = check_texts(in, checks);

    LayerExtras x;
    x.create_engine_ms = warm_create_ms(in);
    x.prepare_ms = mean(times.prepare_ms);
    x.parse_ms = mean(times.parse_ms);
    x.sharded_steps = traced.sharded_steps;
    x.jobs = traced.jobs;
    x.accept_ms = mean(traced.accept_s) * 1e3;
    x.client_latency_ms = mean(traced.latency_all_s) * 1e3;
    const double lookups = static_cast<double>(traced.stats.cache_hits +
                                               traced.stats.cache_misses);
    x.cache_hit_ratio =
        lookups > 0 ? static_cast<double>(traced.stats.cache_hits) / lookups
                    : 0.0;
    x.cache_misses = traced.stats.cache_misses;
    x.cache_entries = traced.stats.cache_entries;
    x.rejected = traced.stats.rejected;
    simt_layer(traced, x, checks);
    x.untraced_ops_per_s = plain.ops.ops_per_s();
    x.traced_ops_per_s = traced.ops.ops_per_s();
    const TraceSummary trace = summarize_trace(read_file(trace_path(opt)));
    add_per_layer(out.metrics, trace, trace,
                  parse_metrics(read_file(metrics_path(opt))), x);
    out.attempted = plain.ops.latencies_s.size() + plain.ops.failed +
                    traced.ops.latencies_s.size() + traced.ops.failed;
    out.failed = plain.ops.failed + traced.ops.failed;
    return out;
}

}  // namespace perfbench
