/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses.
 *
 * Every binary regenerates one table or figure of the paper's
 * evaluation (§7) by running the actual pipeline — no numbers are
 * hard-coded. Environment knobs:
 *
 *   PRORACE_SCALE   workload length multiplier (default 1.0)
 *   PRORACE_TRIALS  traces per configuration for Table 2 (default 25;
 *                   the paper uses 100)
 */

#ifndef PRORACE_BENCH_BENCH_UTIL_HH
#define PRORACE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace prorace::bench {

/** Workload scale factor from PRORACE_SCALE. */
inline double
envScale(double def = 1.0)
{
    const char *s = std::getenv("PRORACE_SCALE");
    return s ? std::atof(s) : def;
}

/** Trial count from PRORACE_TRIALS. */
inline int
envTrials(int def)
{
    const char *s = std::getenv("PRORACE_TRIALS");
    return s ? std::atoi(s) : def;
}

/**
 * Analysis worker count from `--jobs N` (@p def without the flag).
 * A value that is not a plain decimal number prints a usage line and
 * exits 2 rather than silently running serially.
 */
inline unsigned
parseJobs(int argc, char **argv, unsigned def = 0)
{
    unsigned jobs = def;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") != 0)
            continue;
        const char *v = i + 1 < argc ? argv[i + 1] : "";
        char *end = nullptr;
        const unsigned long n = std::strtoul(v, &end, 10);
        if (*v < '0' || *v > '9' || *end != '\0' || n > 0xffffffffu) {
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--json PATH]: bad --jobs "
                         "value '%s'\n",
                         argv[0], v);
            std::exit(2);
        }
        jobs = static_cast<unsigned>(n);
    }
    return jobs;
}

/** Standard banner naming the regenerated figure/table. */
inline void
banner(const char *figure, const char *caption)
{
    std::printf("==================================================="
                "===========================\n");
    std::printf("ProRace reproduction — %s\n%s\n", figure, caption);
    std::printf("==================================================="
                "===========================\n");
}

/** The sampling periods the paper sweeps. */
inline const std::vector<uint64_t> &
paperPeriods()
{
    static const std::vector<uint64_t> periods{10, 100, 1000, 10000,
                                              100000};
    return periods;
}

/**
 * Machine-readable benchmark output, enabled with `--json <path>`.
 *
 * Each record is one JSON object per line (JSONL):
 *   {"bench": "...", "config": {...}, "metrics": {...}}
 * so per-PR perf trajectories (BENCH_*.json) can be collected by
 * appending records across runs without parsing state.
 *
 * Usage in a harness main:
 *   bench::JsonReporter json(argc, argv);        // consumes --json
 *   ...
 *   json.record("fig12", {{"app", name}}, {{"total_s", total}});
 */
class JsonReporter
{
  public:
    /**
     * Scan argv for `--json <path>`; no file is written without it. The
     * file is opened here, so an unwritable path exits 2 before any
     * work is done.
     */
    JsonReporter(int argc, char **argv)
    {
        for (int i = 1; i + 1 < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0)
                path_ = argv[i + 1];
        }
        if (path_.empty())
            return;
        file_ = std::fopen(path_.c_str(), "w");
        if (!file_) {
            std::fprintf(stderr, "cannot write %s\n", path_.c_str());
            std::exit(2);
        }
    }

    ~JsonReporter()
    {
        if (!file_)
            return;
        for (const std::string &line : lines_)
            std::fprintf(file_, "%s\n", line.c_str());
        std::fclose(file_);
    }

    JsonReporter(const JsonReporter &) = delete;
    JsonReporter &operator=(const JsonReporter &) = delete;

    bool enabled() const { return !path_.empty(); }

    /** Queue one {bench, config, metrics} record. */
    void
    record(const std::string &bench,
           const std::vector<std::pair<std::string, std::string>> &config,
           const std::vector<std::pair<std::string, double>> &metrics)
    {
        if (path_.empty())
            return;
        std::string line = "{\"bench\": \"" + escape(bench) +
            "\", \"config\": {";
        for (size_t i = 0; i < config.size(); ++i) {
            line += (i ? ", " : "") + quoted(config[i].first) + ": " +
                quoted(config[i].second);
        }
        line += "}, \"metrics\": {";
        for (size_t i = 0; i < metrics.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof(value), "%.9g",
                          metrics[i].second);
            line += (i ? ", " : "") + quoted(metrics[i].first) + ": " +
                value;
        }
        line += "}}";
        lines_.push_back(std::move(line));
    }

  private:
    static std::string
    escape(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    static std::string
    quoted(const std::string &s)
    {
        return "\"" + escape(s) + "\"";
    }

    std::string path_;
    std::FILE *file_ = nullptr;
    std::vector<std::string> lines_;
};

} // namespace prorace::bench

#endif // PRORACE_BENCH_BENCH_UTIL_HH
