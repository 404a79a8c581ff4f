#include "layers.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

struct Event {
    int name = 0;
    int tid = 0;
    double start = 0.0;  // us
    double end = 0.0;    // us
};

/// Value following `key` at or after `pos`; advances pos past it.
double number_after(const std::string& s, const char* key, std::size_t& pos) {
    const std::size_t k = s.find(key, pos);
    if (k == std::string::npos) {
        throw std::runtime_error(std::string("trace: missing ") + key);
    }
    const char* begin = s.c_str() + k + std::strlen(key);
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    pos = static_cast<std::size_t>(end - s.c_str());
    return v;
}

}  // namespace

const SpanTotals& TraceSummary::get(const std::string& name) const {
    static const SpanTotals kNone;
    const auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
}

TraceSummary summarize_trace(const std::string& json) {
    std::vector<std::string> names;
    std::unordered_map<std::string, int> ids;
    std::vector<Event> events;
    static const char kName[] = "{\"name\":\"";
    std::size_t pos = 0;
    while ((pos = json.find(kName, pos)) != std::string::npos) {
        pos += sizeof(kName) - 1;
        const std::size_t q = json.find('"', pos);
        if (q == std::string::npos) throw std::runtime_error("trace: bad name");
        std::string name = json.substr(pos, q - pos);
        pos = q;
        auto [it, fresh] = ids.try_emplace(name, static_cast<int>(names.size()));
        if (fresh) names.push_back(name);
        Event e;
        e.name = it->second;
        e.tid = static_cast<int>(number_after(json, "\"tid\":", pos));
        e.start = number_after(json, "\"ts\":", pos);
        e.end = e.start + number_after(json, "\"dur\":", pos);
        events.push_back(e);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                         if (a.tid != b.tid) return a.tid < b.tid;
                         if (a.start != b.start) return a.start < b.start;
                         return a.end > b.end;
                     });

    TraceSummary out;
    std::vector<SpanTotals> totals(names.size());
    // Self time: nesting is per thread; a span's direct children are the
    // spans that open inside it on the same thread.
    struct Open {
        const Event* e;
        double child_us;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& o) {
        auto& t = totals[static_cast<std::size_t>(o.e->name)];
        const double dur = o.e->end - o.e->start;
        t.count += 1;
        t.total_us += dur;
        t.self_us += std::max(0.0, dur - o.child_us);
    };
    int tid = -1;
    for (const auto& e : events) {
        if (e.tid != tid) {
            while (!stack.empty()) {
                close(stack.back());
                stack.pop_back();
            }
            tid = e.tid;
        }
        while (!stack.empty() && stack.back().e->end <= e.start) {
            close(stack.back());
            stack.pop_back();
        }
        if (!stack.empty()) stack.back().child_us += e.end - e.start;
        stack.push_back({&e, 0.0});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
    for (std::size_t i = 0; i < names.size(); ++i) out.spans[names[i]] = totals[i];

    // Engine-level pool work: task / queue-wait spans inside a step.
    const auto id_of = [&](const char* n) {
        const auto it = ids.find(n);
        return it == ids.end() ? -1 : it->second;
    };
    const int step_id = id_of("step");
    const int task_id = id_of("pool/task");
    const int wait_id = id_of("pool/queue_wait");
    std::vector<std::pair<double, double>> steps;
    for (const auto& e : events) {
        if (e.name == step_id) steps.emplace_back(e.start, e.end);
    }
    std::sort(steps.begin(), steps.end());
    const auto in_step = [&](const Event& e) {
        auto it = std::upper_bound(
            steps.begin(), steps.end(), std::make_pair(e.start, 1e300));
        if (it == steps.begin()) return false;
        --it;
        return it->second >= e.end - 1e-3;
    };
    for (const auto& e : events) {
        if (e.name != task_id && e.name != wait_id) continue;
        if (!in_step(e)) continue;
        if (e.name == task_id) {
            ++out.step_tasks;
            out.step_task_us += e.end - e.start;
        } else {
            out.step_queue_wait_us += e.end - e.start;
        }
    }
    return out;
}

std::uint64_t MetricSnapshot::counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

double MetricSnapshot::histogram_mean(const std::string& name) const {
    const auto it = histograms.find(name);
    if (it == histograms.end() || it->second.count == 0) return 0.0;
    return it->second.sum / static_cast<double>(it->second.count);
}

MetricSnapshot parse_metrics(const std::string& json) {
    MetricSnapshot out;
    const auto section = [&](const char* key) {
        const std::size_t k = json.find(key);
        if (k == std::string::npos) {
            throw std::runtime_error(std::string("metrics: missing ") + key);
        }
        return k + std::strlen(key);
    };
    // "counters":{"name":123,...}
    std::size_t pos = section("\"counters\":{");
    while (json[pos] == '"') {
        const std::size_t q = json.find('"', pos + 1);
        const std::string name = json.substr(pos + 1, q - pos - 1);
        char* end = nullptr;
        out.counters[name] = std::strtoull(json.c_str() + q + 2, &end, 10);
        pos = static_cast<std::size_t>(end - json.c_str());
        if (json[pos] == ',') ++pos;
    }
    // "histograms":{"name":{"count":N,"sum":S,...,"buckets":[...]},...}
    pos = section("\"histograms\":{");
    while (json[pos] == '"') {
        const std::size_t q = json.find('"', pos + 1);
        const std::string name = json.substr(pos + 1, q - pos - 1);
        pos = q + 1;
        HistogramTotals h;
        h.count = static_cast<std::uint64_t>(number_after(json, "\"count\":", pos));
        h.sum = number_after(json, "\"sum\":", pos);
        out.histograms[name] = h;
        // Skip to the end of this histogram object (buckets nest objects).
        int depth = 0;
        pos = json.find('{', q);
        for (; pos < json.size(); ++pos) {
            if (json[pos] == '{') ++depth;
            if (json[pos] == '}' && --depth == 0) break;
        }
        ++pos;
        if (json[pos] == ',') ++pos;
    }
    return out;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void add_per_layer(Metrics& m, const TraceSummary& t, const TraceSummary& et,
                   const MetricSnapshot& mx, const LayerExtras& x) {
    const double steps = static_cast<double>(t.get("step").count);
    const auto per_step = [&](double v) { return steps > 0 ? v / steps : 0.0; };
    const auto mean_ms = [&](const char* name) {
        const auto& s = t.get(name);
        return s.count > 0 ? s.total_us / static_cast<double>(s.count) / 1e3
                           : 0.0;
    };
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    // core: self time of each stage span per step.
    m.set("core.reset_us", per_step(t.get("stage/reset").self_us), "us");
    m.set("core.initial_calc_us", per_step(t.get("stage/initial_calc").self_us),
          "us");
    m.set("core.tour_construction_us",
          per_step(t.get("stage/tour_construction").self_us), "us");
    m.set("core.movement_us", per_step(t.get("stage/movement").self_us), "us");
    m.set("core.finish_step_us", per_step(t.get("stage/finish_step").self_us),
          "us");
    m.set("core.events_us",
          per_step(t.get("step/door_events").total_us +
                   t.get("step/anticipate").total_us +
                   t.get("step/perturb_drops").total_us +
                   t.get("step/perturb_surges").total_us),
          "us");
    const double sim_steps = static_cast<double>(mx.counter("sim.steps"));
    const double proposals = static_cast<double>(mx.counter("sim.proposals"));
    m.set("core.proposals_per_step", ratio(proposals, sim_steps), "count");
    m.set("core.moves_per_step",
          ratio(static_cast<double>(mx.counter("sim.moves")), sim_steps),
          "count");
    m.set("core.conflict_ratio",
          ratio(static_cast<double>(mx.counter("sim.conflicts")), proposals),
          "ratio");

    // exec: engine-level pool work inside steps.
    const double exec_steps = static_cast<double>(et.get("step").count);
    m.set("exec.tasks_per_step",
          ratio(static_cast<double>(et.step_tasks), exec_steps), "count");
    m.set("exec.task_us",
          ratio(et.step_task_us, static_cast<double>(et.step_tasks)), "us");
    m.set("exec.queue_wait_us", ratio(et.step_queue_wait_us, exec_steps), "us");
    m.set("exec.utilisation",
          ratio(et.step_task_us, et.get("step").total_us *
                                     static_cast<double>(x.engine_threads)),
          "ratio");
    m.set("exec.threaded_ops_per_s", x.threaded_ops_per_s, "1/s");
    m.set("exec.threaded_speedup",
          ratio(x.threaded_ops_per_s, x.traced_ops_per_s), "ratio");

    // backend
    m.set("backend.create_engine_ms", x.create_engine_ms, "ms");
    m.set("backend.halo_rows_per_step",
          ratio(static_cast<double>(mx.counter("shard.halo_rows_exchanged")),
                static_cast<double>(x.sharded_steps)),
          "count");

    // grid
    m.set("grid.field_builds",
          ratio(static_cast<double>(t.get("setup/field_build").count),
                static_cast<double>(t.get("setup/door_schedule").count)),
          "count");
    m.set("grid.field_build_ms", mean_ms("setup/field_build"), "ms");
    m.set("grid.placement_ms", mean_ms("setup/placement"), "ms");

    // core door schedule
    m.set("core.door_schedule_ms", mean_ms("setup/door_schedule"), "ms");
    const double hit = static_cast<double>(mx.counter("doors.field_cache.hit"));
    const double miss =
        static_cast<double>(mx.counter("doors.field_cache.miss"));
    m.set("core.field_cache_hit_ratio", ratio(hit, hit + miss), "ratio");

    // io, scenario
    m.set("io.parse_ms", x.parse_ms, "ms");
    m.set("scenario.prepare_ms", x.prepare_ms, "ms");

    // server
    const double jobs = static_cast<double>(x.jobs);
    const double server_latency_ms =
        mx.histogram_mean("server.job.latency_ns") / 1e6;
    m.set("server.accept_ms", x.accept_ms, "ms");
    m.set("server.job_latency_ms", server_latency_ms, "ms");
    m.set("server.transport_ms",
          x.jobs > 0 ? x.client_latency_ms - server_latency_ms : 0.0, "ms");
    m.set("server.exec_ms",
          ratio((t.get("run").total_us + t.get("setup/door_schedule").total_us +
                 t.get("setup/placement").total_us) /
                    1e3,
                jobs),
          "ms");
    m.set("server.queue_depth", mx.histogram_mean("server.queue.depth"),
          "count");
    m.set("server.cache_hit_ratio", x.cache_hit_ratio, "ratio");
    m.set("server.cache_misses", static_cast<double>(x.cache_misses), "count");
    m.set("server.cache_entries", static_cast<double>(x.cache_entries),
          "count");
    m.set("server.rejected", static_cast<double>(x.rejected), "count");

    // simt
    m.set("simt.host_us_per_step", x.simt_host_us_per_step, "us");
    m.set("simt.modeled_us_per_step", x.simt_modeled_us_per_step, "us");
    m.set("simt.launches", x.simt_launches, "count");
    m.set("simt.warp_instructions", x.simt_warp_instructions, "count");
    m.set("simt.global_transactions", x.simt_global_transactions, "count");

    // tracing overhead
    m.set("trace.ops_per_s", x.traced_ops_per_s, "1/s");
    m.set("trace.overhead_pct",
          x.untraced_ops_per_s > 0
              ? (1.0 - x.traced_ops_per_s / x.untraced_ops_per_s) * 100.0
              : 0.0,
          "%");
}

}  // namespace perfbench
