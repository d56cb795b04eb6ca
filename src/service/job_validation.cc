#include "service/job_validation.h"

#include <set>
#include <sstream>

#include "core/generator_common.h"
#include "core/generator_registry.h"
#include "decoder/decoder_factory.h"
#include "mc/memory_experiment.h"
#include "util/env.h"

namespace vlq {
namespace service {

namespace {

bool
validIdChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

} // namespace

std::vector<std::string>
validateJob(const ScanJob& job)
{
    std::vector<std::string> problems;
    auto bad = [&](const std::string& message) {
        problems.push_back(message);
    };

    // Identity: the id names the checkpoint file and labels events and
    // metrics, so it must be safe in paths and JSON.
    if (job.id.empty())
        bad("job id must not be empty");
    else if (job.id.size() > 64)
        bad("job id '" + job.id.substr(0, 16)
            + "...' is longer than 64 characters");
    else {
        for (char c : job.id) {
            if (!validIdChar(c)) {
                bad("job id '" + job.id + "' contains '"
                    + std::string(1, c)
                    + "'; allowed characters are [A-Za-z0-9._-]");
                break;
            }
        }
    }

    if (job.priority < -100 || job.priority > 100)
        bad("priority " + std::to_string(job.priority)
            + " is outside [-100, 100]");

    // Setup selection: either a paper-setup index or a registered
    // embedding name (exactly the registry threshold_scan consults).
    if (!job.embedding.empty()) {
        if (!parseEmbeddingKind(job.embedding))
            bad("unknown embedding '" + job.embedding
                + "'; registered embeddings: " + embeddingKindList());
        std::string schedule = asciiLower(job.schedule);
        if (schedule != "aao" && schedule != "interleaved")
            bad("unknown schedule '" + job.schedule
                + "'; valid schedules: aao, interleaved");
    } else if (job.setup != -1
               && (job.setup < 0
                   || job.setup >= static_cast<int>(paperSetups().size()))) {
        // -1 is the "unset, use the default setup" sentinel.
        bad("setup index " + std::to_string(job.setup)
            + " is out of range 0.."
            + std::to_string(paperSetups().size() - 1));
    }

    // Grid: every distance must build a valid patch. Reuse
    // GeneratorConfig::validate, the single source of truth the
    // generator backends themselves enforce, so the rejection message
    // here matches what a solo run would print.
    if (job.distances.empty())
        bad("distances must name at least one code distance");
    std::set<int> seenDistances;
    for (int d : job.distances) {
        if (!seenDistances.insert(d).second) {
            bad("distance " + std::to_string(d)
                + " appears more than once");
            continue;
        }
        GeneratorConfig gc;
        gc.distance = d;
        std::string problem = gc.validate();
        if (!problem.empty())
            bad("distance " + std::to_string(d) + " is invalid: "
                + problem);
    }
    std::set<double> seenPs;
    for (double p : job.physicalPs) {
        if (!seenPs.insert(p).second) {
            std::ostringstream os;
            os << "physical rate " << p << " appears more than once";
            bad(os.str());
            continue;
        }
        if (!(p > 0.0) || p > 0.5) {
            std::ostringstream os;
            os << "physical rate " << p << " is outside (0, 0.5]";
            bad(os.str());
        }
    }

    // Budget and engine knobs.
    if (job.trials < 1)
        bad("trials must be at least 1");
    if (job.batchSize < 1)
        bad("batch must be at least 1");
    if (job.targetFailures > job.trials)
        bad("target (" + std::to_string(job.targetFailures)
            + ") exceeds the trial budget ("
            + std::to_string(job.trials)
            + "), so the early stop could never fire");
    if (!parseDecoderKind(job.decoder))
        bad("unknown decoder '" + job.decoder
            + "'; registered decoders: " + decoderKindList());
    // The retired compute key is a no-op, but it is still outside
    // input: only the two names older servers accepted pass.
    if (!job.compute.empty() && job.compute != "scalar"
        && job.compute != "simd")
        bad("unknown compute backend '" + job.compute
            + "'; accepted values (both no-ops): scalar, simd");

    return problems;
}

std::string
validationSummary(const ScanJob& job)
{
    std::vector<std::string> problems = validateJob(job);
    std::string summary;
    for (const std::string& problem : problems) {
        if (!summary.empty())
            summary += "; ";
        summary += problem;
    }
    return summary;
}

} // namespace service
} // namespace vlq
