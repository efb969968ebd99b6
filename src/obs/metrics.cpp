#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

namespace ecfrm::obs {

int Histogram::bucket_index(double v) {
    if (!(v > 0.0)) return 0;
    int exp = 0;
    const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5, 1)
    if (exp <= kMinExp) return 0;
    if (exp > kMaxExp) return kBuckets - 1;
    int sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
    sub = std::min(sub, kSubBuckets - 1);
    return (exp - 1 - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_lower(int index) {
    const int octave = index / kSubBuckets;
    const int sub = index % kSubBuckets;
    return (0.5 + static_cast<double>(sub) / (2.0 * kSubBuckets)) *
           std::ldexp(1.0, kMinExp + octave + 1);
}

double Histogram::percentile(double q) const {
    const std::int64_t n = count();
    if (n == 0) return 0.0;
    if (!(q >= 0.0)) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Nearest rank: the smallest bucket whose cumulative count reaches
    // ceil(q * n) (at least 1).
    const auto rank = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n))));
    std::int64_t cumulative = 0;
    for (int i = 0; i < kBuckets; ++i) {
        cumulative += bucket_count(i);
        if (cumulative >= rank) {
            const double mid = 0.5 * (bucket_lower(i) + bucket_upper(i));
            return std::clamp(mid, min(), max());
        }
    }
    return max();  // racing writers: fall back to the observed maximum
}

namespace {

Labels canonical(Labels labels) {
    std::sort(labels.begin(), labels.end());
    return labels;
}

std::string entry_key(MetricKind kind, const std::string& name, const Labels& labels) {
    std::string key;
    key += static_cast<char>('0' + static_cast<int>(kind));
    key += name;
    for (const auto& [k, v] : labels) {
        key += '\x1f';
        key += k;
        key += '\x1e';
        key += v;
    }
    return key;
}

}  // namespace

MetricEntry& MetricRegistry::entry(MetricKind kind, const std::string& name, Labels labels) {
    labels = canonical(std::move(labels));
    const std::string key = entry_key(kind, name, labels);
    std::lock_guard lk(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) return *it->second;
    auto owned = std::make_unique<MetricEntry>();
    owned->name = name;
    owned->labels = std::move(labels);
    owned->kind = kind;
    switch (kind) {
        case MetricKind::counter: owned->counter = std::make_unique<Counter>(); break;
        case MetricKind::gauge: owned->gauge = std::make_unique<Gauge>(); break;
        case MetricKind::histogram: owned->histogram = std::make_unique<Histogram>(); break;
    }
    MetricEntry* raw = owned.get();
    entries_.push_back(std::move(owned));
    index_.emplace(key, raw);
    return *raw;
}

Counter& MetricRegistry::counter(const std::string& name, Labels labels) {
    return *entry(MetricKind::counter, name, std::move(labels)).counter;
}

Gauge& MetricRegistry::gauge(const std::string& name, Labels labels) {
    return *entry(MetricKind::gauge, name, std::move(labels)).gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name, Labels labels) {
    return *entry(MetricKind::histogram, name, std::move(labels)).histogram;
}

void MetricRegistry::describe(const std::string& name, std::string help) {
    std::lock_guard lk(mu_);
    help_[name] = std::move(help);
}

std::string MetricRegistry::help(const std::string& name) const {
    std::lock_guard lk(mu_);
    auto it = help_.find(name);
    return it == help_.end() ? std::string() : it->second;
}

IoStats MetricRegistry::disk_io_stats(int disk) {
    const Labels labels{{"disk", std::to_string(disk)}};
    describe("ecfrm_disk_read_ops_total", "Successful element reads served by the device");
    describe("ecfrm_disk_write_ops_total", "Successful element writes absorbed by the device");
    describe("ecfrm_store_io_errors_total", "Device ops that returned an error, by op type");
    describe("ecfrm_store_io_error_bytes_total", "Payload bytes of failed device ops, by op type");
    describe("ecfrm_disk_in_flight_ops", "Device ops issued but not yet completed (live queue depth)");
    describe("ecfrm_disk_flushes_total", "Durability flushes (fflush/fsync) the device issued");
    describe("ecfrm_disk_batch_depth", "I/O ops one vectored submission put in flight at once");
    describe("ecfrm_disk_cached_batches_total",
             "Read batches the page cache served whole, without a ring submission");
    IoStats io;
    io.in_flight = &gauge("ecfrm_disk_in_flight_ops", labels);
    io.flushes = &counter("ecfrm_disk_flushes_total", labels);
    io.batch_depth = &histogram("ecfrm_disk_batch_depth", labels);
    io.cached_batches = &counter("ecfrm_disk_cached_batches_total", labels);
    io.read_ops = &counter("ecfrm_disk_read_ops_total", labels);
    io.read_bytes = &counter("ecfrm_disk_read_bytes_total", labels);
    io.read_seconds = &histogram("ecfrm_disk_read_seconds", labels);
    io.write_ops = &counter("ecfrm_disk_write_ops_total", labels);
    io.write_bytes = &counter("ecfrm_disk_write_bytes_total", labels);
    io.write_seconds = &histogram("ecfrm_disk_write_seconds", labels);
    const Labels read_labels{{"disk", std::to_string(disk)}, {"op", "read"}};
    const Labels write_labels{{"disk", std::to_string(disk)}, {"op", "write"}};
    io.read_errors = &counter("ecfrm_store_io_errors_total", read_labels);
    io.read_error_bytes = &counter("ecfrm_store_io_error_bytes_total", read_labels);
    io.write_errors = &counter("ecfrm_store_io_errors_total", write_labels);
    io.write_error_bytes = &counter("ecfrm_store_io_error_bytes_total", write_labels);
    return io;
}

std::size_t MetricRegistry::size() const {
    std::lock_guard lk(mu_);
    return entries_.size();
}

std::vector<const MetricEntry*> MetricRegistry::entries() const {
    std::lock_guard lk(mu_);
    std::vector<const MetricEntry*> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.get());
    return out;
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
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

std::string prometheus_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

namespace {

std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string json_labels(const Labels& labels) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) out += ",";
        first = false;
        out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    out += "}";
    return out;
}

std::string prometheus_labels(const Labels& labels, const Labels& extra = {}) {
    if (labels.empty() && extra.empty()) return "";
    std::string out = "{";
    bool first = true;
    for (const auto* set : {&labels, &extra}) {
        for (const auto& [k, v] : *set) {
            if (!first) out += ",";
            first = false;
            out += k + "=\"" + prometheus_escape(v) + "\"";
        }
    }
    out += "}";
    return out;
}

std::string display_labels(const Labels& labels) {
    if (labels.empty()) return "";
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) out += ",";
        first = false;
        out += k + "=" + v;
    }
    out += "}";
    return out;
}

}  // namespace

std::string MetricRegistry::to_json() const {
    std::string out;
    for (const MetricEntry* e : entries()) {
        out += "{\"name\":\"" + json_escape(e->name) + "\",\"labels\":" + json_labels(e->labels);
        switch (e->kind) {
            case MetricKind::counter:
                out += ",\"type\":\"counter\",\"value\":" + std::to_string(e->counter->value());
                break;
            case MetricKind::gauge:
                out += ",\"type\":\"gauge\",\"value\":" + format_double(e->gauge->value());
                break;
            case MetricKind::histogram: {
                const Histogram& h = *e->histogram;
                out += ",\"type\":\"histogram\",\"count\":" + std::to_string(h.count());
                out += ",\"sum\":" + format_double(h.sum());
                out += ",\"min\":" + format_double(h.min());
                out += ",\"max\":" + format_double(h.max());
                out += ",\"mean\":" + format_double(h.mean());
                out += ",\"p50\":" + format_double(h.percentile(0.50));
                out += ",\"p95\":" + format_double(h.percentile(0.95));
                out += ",\"p99\":" + format_double(h.percentile(0.99));
                break;
            }
        }
        out += "}\n";
    }
    return out;
}

std::string MetricRegistry::to_prometheus() const {
    std::string out;
    std::set<std::string> typed;
    // First exposition of a family: `# HELP` (when described) then `# TYPE`.
    auto header = [&](const std::string& name, const char* type) {
        if (!typed.insert(name).second) return;
        const std::string h = help(name);
        if (!h.empty()) out += "# HELP " + name + " " + prometheus_escape(h) + "\n";
        out += "# TYPE " + name + " " + type + "\n";
    };
    for (const MetricEntry* e : entries()) {
        switch (e->kind) {
            case MetricKind::counter:
                header(e->name, "counter");
                out += e->name + prometheus_labels(e->labels) + " " +
                       std::to_string(e->counter->value()) + "\n";
                break;
            case MetricKind::gauge:
                header(e->name, "gauge");
                out += e->name + prometheus_labels(e->labels) + " " +
                       format_double(e->gauge->value()) + "\n";
                break;
            case MetricKind::histogram: {
                header(e->name, "summary");
                const Histogram& h = *e->histogram;
                for (const auto& [q, name] :
                     {std::pair{0.50, "0.5"}, std::pair{0.95, "0.95"}, std::pair{0.99, "0.99"}}) {
                    out += e->name + prometheus_labels(e->labels, {{"quantile", name}}) + " " +
                           format_double(h.percentile(q)) + "\n";
                }
                out += e->name + "_sum" + prometheus_labels(e->labels) + " " + format_double(h.sum()) + "\n";
                out += e->name + "_count" + prometheus_labels(e->labels) + " " +
                       std::to_string(h.count()) + "\n";
                break;
            }
        }
    }
    return out;
}

std::string MetricRegistry::to_console() const {
    const auto all = entries();
    std::size_t width = 0;
    std::vector<std::string> keys;
    keys.reserve(all.size());
    for (const MetricEntry* e : all) {
        keys.push_back(e->name + display_labels(e->labels));
        width = std::max(width, keys.back().size());
    }
    std::string out = "== metrics (" + name_ + ") ==\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const MetricEntry* e = all[i];
        std::string line = keys[i];
        line.resize(width + 2, ' ');
        switch (e->kind) {
            case MetricKind::counter: line += std::to_string(e->counter->value()); break;
            case MetricKind::gauge: line += format_double(e->gauge->value()); break;
            case MetricKind::histogram: {
                const Histogram& h = *e->histogram;
                line += "count=" + std::to_string(h.count()) + " mean=" + format_double(h.mean()) +
                        " p50=" + format_double(h.percentile(0.5)) +
                        " p95=" + format_double(h.percentile(0.95)) +
                        " p99=" + format_double(h.percentile(0.99)) + " max=" + format_double(h.max());
                break;
            }
        }
        out += line + "\n";
    }
    return out;
}

}  // namespace ecfrm::obs
