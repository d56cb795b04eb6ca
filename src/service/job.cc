#include "service/job.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/generator_registry.h"
#include "decoder/decoder_factory.h"
#include "mc/checkpoint.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/stats.h"

namespace vlq {
namespace service {

namespace {

/**
 * Strict double parse for request values: the whole token must be one
 * finite number (no leading whitespace, no trailing junk) -- the same
 * contract parseInt64 enforces for integers.
 */
std::optional<double>
parseDoubleStrict(const std::string& text)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char* end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || errno == ERANGE
        || !std::isfinite(value))
        return std::nullopt;
    return value;
}

/** Split "3,5,7" on commas (empty fields are the caller's error). */
std::vector<std::string>
splitCommas(const std::string& text)
{
    std::vector<std::string> out;
    size_t begin = 0;
    while (begin <= text.size()) {
        size_t comma = text.find(',', begin);
        if (comma == std::string::npos) {
            out.push_back(text.substr(begin));
            break;
        }
        out.push_back(text.substr(begin, comma - begin));
        begin = comma + 1;
    }
    return out;
}

bool
fail(std::string* error, const std::string& message)
{
    if (error)
        *error = message;
    return false;
}

/** Apply one key=value token to the job under construction. */
bool
applyKeyValue(ScanJob& job, const std::string& key,
              const std::string& value, std::string* error)
{
    auto needInt = [&](int64_t lo, int64_t hi,
                       int64_t* out) {
        auto parsed = parseInt64(value);
        if (!parsed || *parsed < lo || *parsed > hi)
            return fail(error, "bad value for '" + key + "': '" + value
                        + "' (expected an integer in ["
                        + std::to_string(lo) + ", " + std::to_string(hi)
                        + "])");
        *out = *parsed;
        return true;
    };
    int64_t n = 0;
    if (key == "id") {
        job.id = value;
        return true;
    }
    if (key == "priority") {
        if (!needInt(-100, 100, &n))
            return false;
        job.priority = static_cast<int>(n);
        return true;
    }
    if (key == "setup") {
        if (!needInt(0, static_cast<int64_t>(paperSetups().size()) - 1,
                     &n))
            return false;
        job.setup = static_cast<int>(n);
        return true;
    }
    if (key == "embedding") {
        job.embedding = value;
        return true;
    }
    if (key == "schedule") {
        job.schedule = value;
        return true;
    }
    if (key == "distances") {
        job.distances.clear();
        for (const std::string& field : splitCommas(value)) {
            auto parsed = parseInt64(field);
            if (!parsed || *parsed < std::numeric_limits<int>::min()
                || *parsed > std::numeric_limits<int>::max())
                return fail(error, "bad value for 'distances': '" + field
                            + "' is not an int");
            job.distances.push_back(static_cast<int>(*parsed));
        }
        return true;
    }
    if (key == "ps") {
        job.physicalPs.clear();
        for (const std::string& field : splitCommas(value)) {
            auto parsed = parseDoubleStrict(field);
            if (!parsed)
                return fail(error, "bad value for 'ps': '" + field
                            + "' is not a finite number");
            job.physicalPs.push_back(*parsed);
        }
        return true;
    }
    if (key == "trials") {
        if (!needInt(1, INT64_MAX, &n))
            return false;
        job.trials = static_cast<uint64_t>(n);
        return true;
    }
    if (key == "seed") {
        if (!needInt(0, INT64_MAX, &n))
            return false;
        job.seed = static_cast<uint64_t>(n);
        return true;
    }
    if (key == "decoder") {
        job.decoder = value;
        return true;
    }
    if (key == "batch") {
        if (!needInt(1, UINT32_MAX, &n))
            return false;
        job.batchSize = static_cast<uint32_t>(n);
        return true;
    }
    if (key == "target") {
        if (!needInt(0, INT64_MAX, &n))
            return false;
        job.targetFailures = static_cast<uint64_t>(n);
        return true;
    }
    if (key == "compute") {
        job.compute = value;
        return true;
    }
    return fail(error, "unknown request key '" + key
                + "' (valid: id priority setup embedding schedule"
                  " distances ps trials seed decoder batch target"
                  " compute)");
}

} // namespace

std::vector<double>
defaultPhysicalPs()
{
    return logspace(3e-3, 2e-2, 6);
}

std::string
ScanJob::requestLine() const
{
    std::ostringstream os;
    os << "submit id=" << id << " priority=" << priority;
    if (!embedding.empty())
        os << " embedding=" << embedding << " schedule=" << schedule;
    else if (setup >= 0)
        os << " setup=" << setup;
    os << " distances=";
    for (size_t i = 0; i < distances.size(); ++i)
        os << (i ? "," : "") << distances[i];
    if (!physicalPs.empty()) {
        os << " ps=";
        for (size_t i = 0; i < physicalPs.size(); ++i)
            os << (i ? "," : "") << canonicalDouble(physicalPs[i]);
    }
    os << " trials=" << trials << " seed=" << seed << " decoder="
       << decoder << " batch=" << batchSize << " target="
       << targetFailures;
    // Rendered only when set: "inherit the server default" stays
    // distinguishable from an explicit backend choice, and lines from
    // older clients round-trip byte-identically.
    if (!compute.empty())
        os << " compute=" << compute;
    return os.str();
}

std::optional<Request>
parseRequestLine(const std::string& line, std::string* error)
{
    if (error)
        error->clear();

    // Tokenize on runs of spaces/tabs.
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string token;
    while (is >> token)
        tokens.push_back(token);
    if (tokens.empty() || tokens[0][0] == '#')
        return std::nullopt;

    Request request;
    if (tokens[0] == "shutdown") {
        if (tokens.size() > 1) {
            fail(error, "shutdown takes no arguments");
            return std::nullopt;
        }
        request.kind = Request::Kind::Shutdown;
        return request;
    }
    if (tokens[0] == "cancel" || tokens[0] == "requeue") {
        // Deliberately strict: exactly `<verb> id=<id>`, so a garbled
        // line can never cancel (or rotate) the wrong job.
        if (tokens.size() != 2 || tokens[1].rfind("id=", 0) != 0
            || tokens[1].size() == 3) {
            fail(error, tokens[0]
                 + " takes exactly one argument: id=<id>");
            return std::nullopt;
        }
        request.kind = tokens[0] == "cancel" ? Request::Kind::Cancel
                                             : Request::Kind::Requeue;
        request.targetId = tokens[1].substr(3);
        return request;
    }
    if (tokens[0] != "submit") {
        fail(error, "unknown request verb '" + tokens[0]
             + "' (valid: submit, cancel, requeue, shutdown)");
        return std::nullopt;
    }
    request.kind = Request::Kind::Submit;
    for (size_t i = 1; i < tokens.size(); ++i) {
        size_t eq = tokens[i].find('=');
        if (eq == std::string::npos || eq == 0) {
            fail(error, "malformed token '" + tokens[i]
                 + "' (expected key=value)");
            return std::nullopt;
        }
        if (!applyKeyValue(request.job, tokens[i].substr(0, eq),
                           tokens[i].substr(eq + 1), error))
            return std::nullopt;
    }
    if (request.job.id.empty()) {
        fail(error, "submit requires a non-empty id=");
        return std::nullopt;
    }
    return request;
}

EvaluationSetup
jobSetup(const ScanJob& job)
{
    if (!job.embedding.empty()) {
        EvaluationSetup setup;
        auto kind = parseEmbeddingKind(job.embedding);
        if (!kind)
            VLQ_FATAL("jobSetup on unvalidated job: bad embedding");
        setup.embedding = *kind;
        std::string lower = asciiLower(job.schedule);
        setup.schedule = lower == "interleaved"
            ? ExtractionSchedule::Interleaved
            : ExtractionSchedule::AllAtOnce;
        return setup;
    }
    auto setups = paperSetups();
    int index = job.setup >= 0 ? job.setup : 4;
    if (index >= static_cast<int>(setups.size()))
        VLQ_FATAL("jobSetup on unvalidated job: bad setup index");
    return setups[static_cast<size_t>(index)];
}

ThresholdScanConfig
jobScanConfig(const ScanJob& job)
{
    ThresholdScanConfig cfg;
    cfg.distances = job.distances;
    cfg.physicalPs = job.physicalPs.empty() ? defaultPhysicalPs()
                                            : job.physicalPs;
    cfg.mc.trials = job.trials;
    cfg.mc.seed = job.seed;
    auto decoder = parseDecoderKind(job.decoder);
    if (!decoder)
        VLQ_FATAL("jobScanConfig on unvalidated job: bad decoder");
    cfg.mc.decoder = *decoder;
    cfg.mc.batchSize = job.batchSize;
    cfg.mc.targetFailures = job.targetFailures;
    return cfg;
}

} // namespace service
} // namespace vlq
