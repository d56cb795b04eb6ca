#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "mc/checkpoint.h"
#include "mc/monte_carlo.h"
#include "mc/threshold.h"
#include "obs/json.h"
#include "service/events.h"
#include "service/job.h"
#include "service/job_service.h"
#include "service/job_validation.h"
#include "service/scheduler.h"
#include "util/rng.h"

namespace vlq {
namespace {

using service::EventSink;
using service::JobService;
using service::JobServiceConfig;
using service::ScanJob;
using service::Scheduler;

ScanJob
smallJob(const std::string& id)
{
    ScanJob job;
    job.id = id;
    job.setup = 2;
    job.distances = {3};
    job.physicalPs = {8e-3};
    job.trials = 600;
    job.batchSize = 64;
    job.seed = 21;
    return job;
}

/** True when some problem message contains `needle`. */
bool
anyProblemContains(const std::vector<std::string>& problems,
                   const std::string& needle)
{
    for (const std::string& problem : problems)
        if (problem.find(needle) != std::string::npos)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// Request wire grammar

TEST(ServiceRequest, RoundTripIsExact)
{
    ScanJob job = smallJob("round-trip_1");
    job.priority = -7;
    job.physicalPs = {3e-3, 7.77e-3};
    job.decoder = "union-find";
    job.targetFailures = 50;

    std::string error;
    auto parsed = service::parseRequestLine(job.requestLine(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_EQ(parsed->kind, service::Request::Kind::Submit);
    const ScanJob& back = parsed->job;
    EXPECT_EQ(back.id, job.id);
    EXPECT_EQ(back.priority, job.priority);
    EXPECT_EQ(back.setup, job.setup);
    EXPECT_EQ(back.distances, job.distances);
    EXPECT_EQ(back.physicalPs, job.physicalPs); // exact, not approx
    EXPECT_EQ(back.trials, job.trials);
    EXPECT_EQ(back.seed, job.seed);
    EXPECT_EQ(back.decoder, job.decoder);
    EXPECT_EQ(back.batchSize, job.batchSize);
    EXPECT_EQ(back.targetFailures, job.targetFailures);
    // And the canonical rendering is a fixed point.
    EXPECT_EQ(back.requestLine(), job.requestLine());
}

TEST(ServiceRequest, CommentsAndBlanksAreSilentlySkipped)
{
    std::string error = "sentinel";
    EXPECT_FALSE(service::parseRequestLine("", &error).has_value());
    EXPECT_TRUE(error.empty());
    error = "sentinel";
    EXPECT_FALSE(
        service::parseRequestLine("  # a comment", &error).has_value());
    EXPECT_TRUE(error.empty());
}

TEST(ServiceRequest, UnknownKeyIsAnErrorNotIgnored)
{
    // A typo'd key must not silently submit a default-budget job.
    std::string error;
    auto parsed = service::parseRequestLine(
        "submit id=x trails=100", &error);
    EXPECT_FALSE(parsed.has_value());
    EXPECT_NE(error.find("trails"), std::string::npos) << error;
}

TEST(ServiceRequest, ShutdownVerb)
{
    std::string error;
    auto parsed = service::parseRequestLine("shutdown", &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->kind, service::Request::Kind::Shutdown);
}

TEST(ServiceRequest, CancelVerb)
{
    std::string error;
    auto parsed = service::parseRequestLine("cancel id=job-7", &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->kind, service::Request::Kind::Cancel);
    EXPECT_EQ(parsed->targetId, "job-7");

    // Strictness: a garbled line must never cancel the wrong job.
    EXPECT_FALSE(service::parseRequestLine("cancel", &error)
                     .has_value());
    EXPECT_FALSE(service::parseRequestLine("cancel id=", &error)
                     .has_value());
    EXPECT_FALSE(service::parseRequestLine("cancel job-7", &error)
                     .has_value());
    EXPECT_FALSE(
        service::parseRequestLine("cancel id=a id=b", &error)
            .has_value());
}

TEST(ServiceRequest, RequeueVerb)
{
    std::string error;
    auto parsed = service::parseRequestLine("requeue id=job-9", &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->kind, service::Request::Kind::Requeue);
    EXPECT_EQ(parsed->targetId, "job-9");

    // Same strictness as cancel: never rotate the wrong job.
    EXPECT_FALSE(service::parseRequestLine("requeue", &error)
                     .has_value());
    EXPECT_FALSE(service::parseRequestLine("requeue id=", &error)
                     .has_value());
    EXPECT_FALSE(
        service::parseRequestLine("requeue id=a id=b", &error)
            .has_value());
}

TEST(ServiceRequest, ComputeKeyRoundTripsOnlyWhenSet)
{
    // Default: the canonical line carries no compute= token. A line
    // that does carry the retired no-op key echoes it back unchanged.
    ScanJob job = smallJob("compute-rt");
    EXPECT_EQ(job.requestLine().find("compute="), std::string::npos);

    job.compute = "simd";
    std::string error;
    auto parsed = service::parseRequestLine(job.requestLine(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->job.compute, "simd");
    EXPECT_EQ(parsed->job.requestLine(), job.requestLine());
}

TEST(ServiceRequest, BadNumbersAreRejected)
{
    std::string error;
    EXPECT_FALSE(service::parseRequestLine("submit id=x trials=abc",
                                           &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(service::parseRequestLine("submit id=x ps=1e", &error)
                     .has_value());
    EXPECT_FALSE(service::parseRequestLine("submit trials=5", &error)
                     .has_value())
        << "missing id must not parse";

    // A NUL ends strtoll's parse, not the token: "10<NUL>999" is not 10.
    using namespace std::string_literals;
    EXPECT_FALSE(service::parseRequestLine(
                     "submit id=a trials=10\0" "999"s, &error)
                     .has_value());
    EXPECT_NE(error.find("bad value for 'trials'"), std::string::npos)
        << error;
    EXPECT_FALSE(service::parseRequestLine(
                     "submit id=a distances=3\0" "7,5 trials=10"s, &error)
                     .has_value());
    EXPECT_NE(error.find("bad value for 'distances'"), std::string::npos)
        << error;
}

TEST(ServiceRequest, DistancesOutsideIntAreRejected)
{
    // 2^32 + 3 must not wrap to d = 3 and pass validation.
    std::string error;
    EXPECT_FALSE(service::parseRequestLine(
                     "submit id=a distances=4294967299,5 trials=10", &error)
                     .has_value());
    EXPECT_NE(error.find("bad value for 'distances': '4294967299'"),
              std::string::npos)
        << error;
    EXPECT_FALSE(service::parseRequestLine(
                     "submit id=a distances=5,-4294967293 trials=10", &error)
                     .has_value());
    EXPECT_NE(error.find("'-4294967293'"), std::string::npos) << error;

    auto parsed = service::parseRequestLine(
        "submit id=a distances=3,5 trials=10", &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->job.distances, (std::vector<int>{3, 5}));
}

/** True for a line parseRequestLine must skip: no token, or a first
 *  token that starts with '#'. Tokens split on ASCII whitespace. */
bool
blankOrComment(const std::string& line)
{
    const auto first =
        std::find_if(line.begin(), line.end(), [](char c) {
            return std::string_view(" \t\n\v\f\r").find(c)
                == std::string_view::npos;
        });
    return first == line.end() || *first == '#';
}

TEST(ServiceRequestFuzz, MutantsAreRejectedSkippedOrRoundTrip)
{
    // Corpus: every verb, both setup spellings, a comment.
    const std::vector<std::string> corpus{
        smallJob("fuzz_1").requestLine(),
        "submit id=a.b-c_9 priority=-3 embedding=compact"
        " schedule=interleaved distances=5,7 ps=0.003,6e-3 trials=1000"
        " seed=0 decoder=union-find batch=64 target=10 compute=simd",
        "submit id=j2 setup=0 trials=+400",
        "cancel id=j1",
        "requeue id=j2",
        "shutdown",
        "# submit id=commented-out",
    };
    const char* const tokens[] = {"junk",     "0",  "trials=5", "id=",
                                  "=",        "#x", "ps=1e-3",  "setup=9",
                                  "distances=7,", "compute="};
    Rng rng(0x5e7f);
    int parsed = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        const std::string& base = corpus[rng.nextBelow(corpus.size())];
        std::string mutant = base;
        switch (rng.nextBelow(4)) {
        case 0: // byte flip
            mutant[rng.nextBelow(mutant.size())] ^=
                static_cast<char>(1 + rng.nextBelow(255));
            break;
        case 1: // truncation
            mutant.resize(rng.nextBelow(mutant.size()));
            break;
        case 2: { // splice: a prefix of one line, a suffix of another
            const std::string& other =
                corpus[rng.nextBelow(corpus.size())];
            mutant = base.substr(0, rng.nextBelow(base.size() + 1))
                   + other.substr(rng.nextBelow(other.size() + 1));
            break;
        }
        default: // a token appended
            mutant += std::string(" ")
                + tokens[rng.nextBelow(std::size(tokens))];
        }
        std::string error = "stale";
        const auto request = service::parseRequestLine(mutant, &error);
        if (!request) {
            // Rejected with a reason, or skipped as blank or comment.
            EXPECT_EQ(error.empty(), blankOrComment(mutant))
                << "line: " << mutant << "\nerror: " << error;
            continue;
        }
        ++parsed;
        EXPECT_EQ(error, "") << mutant;
        EXPECT_FALSE(blankOrComment(mutant)) << mutant;
        if (request->kind == service::Request::Kind::Cancel
            || request->kind == service::Request::Kind::Requeue) {
            EXPECT_FALSE(request->targetId.empty()) << mutant;
        }
        if (request->kind != service::Request::Kind::Submit)
            continue;
        const std::string line = request->job.requestLine();
        const auto back = service::parseRequestLine(line, &error);
        ASSERT_TRUE(back.has_value())
            << "mutant: " << mutant << "\nline: " << line
            << "\nerror: " << error;
        EXPECT_EQ(back->job.requestLine(), line) << mutant;
    }
    EXPECT_GT(parsed, 0);
}

// ---------------------------------------------------------------------
// Validation

TEST(ServiceValidation, DefaultJobIsValid)
{
    ScanJob job;
    job.id = "default";
    EXPECT_TRUE(service::validateJob(job).empty());
}

TEST(ServiceValidation, RejectsBadDecoderWithRegistryListing)
{
    ScanJob job = smallJob("bad-decoder");
    job.decoder = "nope";
    auto problems = service::validateJob(job);
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyProblemContains(problems, "unknown decoder 'nope'"));
    EXPECT_TRUE(anyProblemContains(problems, "registered decoders:"));
    EXPECT_TRUE(anyProblemContains(problems, "mwpm"));
}

TEST(ServiceValidation, RejectsBadEmbeddingWithRegistryListing)
{
    ScanJob job = smallJob("bad-embedding");
    job.embedding = "toroidal";
    auto problems = service::validateJob(job);
    EXPECT_TRUE(
        anyProblemContains(problems, "unknown embedding 'toroidal'"));
    EXPECT_TRUE(anyProblemContains(problems, "registered embeddings:"));
}

TEST(ServiceValidation, RejectsBadComputeWithRegistryListing)
{
    ScanJob job = smallJob("bad-compute");
    job.compute = "gpu";
    auto problems = service::validateJob(job);
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(
        anyProblemContains(problems, "unknown compute backend 'gpu'"));
    EXPECT_TRUE(anyProblemContains(problems, "accepted values"));
    EXPECT_TRUE(anyProblemContains(problems, "scalar, simd"));

    job.compute = "simd"; // an accepted (no-op) name validates
    EXPECT_TRUE(service::validateJob(job).empty());
}

TEST(ServiceValidation, RejectsBadDistanceViaGeneratorValidate)
{
    ScanJob job = smallJob("bad-distance");
    job.distances = {4}; // even distances are invalid patches
    auto problems = service::validateJob(job);
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyProblemContains(problems, "distance 4 is invalid"));
}

TEST(ServiceValidation, RejectsOverBudgetTarget)
{
    ScanJob job = smallJob("bad-target");
    job.trials = 100;
    job.targetFailures = 101;
    auto problems = service::validateJob(job);
    EXPECT_TRUE(anyProblemContains(problems, "early stop"));
}

TEST(ServiceValidation, RejectsBadIdAndPriorityAndGrid)
{
    ScanJob job = smallJob("has space");
    job.id = "has space";
    job.priority = 999;
    job.physicalPs = {0.7};
    auto problems = service::validateJob(job);
    EXPECT_TRUE(anyProblemContains(problems, "[A-Za-z0-9._-]"));
    EXPECT_TRUE(anyProblemContains(problems, "outside [-100, 100]"));
    EXPECT_TRUE(anyProblemContains(problems, "outside (0, 0.5]"));
}

TEST(ServiceValidation, RejectsOutOfRangeSetupIndex)
{
    ScanJob job = smallJob("bad-setup");
    job.setup = 99;
    EXPECT_TRUE(anyProblemContains(service::validateJob(job),
                                   "out of range"));
    job.setup = -1; // the "use the default" sentinel stays valid
    EXPECT_TRUE(service::validateJob(job).empty());
}

// ---------------------------------------------------------------------
// Scheduler policy

TEST(ServiceScheduler, PriorityThenFifo)
{
    Scheduler sched;
    ScanJob lowA = smallJob("low-a");
    ScanJob lowB = smallJob("low-b");
    ScanJob high = smallJob("high");
    high.priority = 10;
    sched.push(lowA);
    sched.push(lowB);
    sched.push(high);
    EXPECT_EQ(sched.topPriority(), 10);
    EXPECT_EQ(sched.pop()->id, "high");
    EXPECT_EQ(sched.pop()->id, "low-a"); // FIFO within a level
    EXPECT_EQ(sched.pop()->id, "low-b");
    EXPECT_FALSE(sched.pop().has_value());
}

TEST(ServiceScheduler, RequeueGoesBehindEqualPriorityPeers)
{
    Scheduler sched;
    sched.push(smallJob("first"));
    sched.push(smallJob("second"));
    ScanJob first = *sched.pop();
    sched.push(first); // preempted: fresh arrival stamp
    EXPECT_EQ(sched.pop()->id, "second") << "round-robin broken";
    EXPECT_EQ(sched.pop()->id, "first");
}

TEST(ServiceScheduler, RequeueVerbRestampsArrival)
{
    Scheduler sched;
    sched.push(smallJob("first"));
    sched.push(smallJob("second"));
    ScanJob high = smallJob("high");
    high.priority = 10;
    sched.push(high);

    // Client-driven rotation: "first" moves behind its equal-priority
    // peer, but never behind (or ahead of) another priority level.
    EXPECT_TRUE(sched.requeue("first"));
    EXPECT_EQ(sched.pop()->id, "high");
    EXPECT_EQ(sched.pop()->id, "second");
    EXPECT_EQ(sched.pop()->id, "first");

    // Ids without a queue position cannot rotate.
    EXPECT_FALSE(sched.requeue("first")) << "no longer queued";
    EXPECT_FALSE(sched.requeue("never-submitted"));
}

TEST(ServiceScheduler, PreemptReasons)
{
    Scheduler sched(1000);
    // Empty queue: nothing to yield to, whatever the slice size.
    EXPECT_FALSE(sched.shouldPreempt("run", 0, 999999).has_value());

    sched.push(smallJob("waiter"));
    // Equal priority, quantum not yet expired: keep running.
    EXPECT_FALSE(sched.shouldPreempt("run", 0, 999).has_value());
    // Equal priority, quantum expired: round-robin yield.
    ASSERT_TRUE(sched.shouldPreempt("run", 0, 1000).has_value());
    EXPECT_EQ(*sched.shouldPreempt("run", 0, 1000), "quantum");
    // Running job outranks the waiter: no quantum preemption.
    EXPECT_FALSE(sched.shouldPreempt("run", 5, 1000000).has_value());

    ScanJob urgent = smallJob("urgent");
    urgent.priority = 50;
    sched.push(urgent);
    ASSERT_TRUE(sched.shouldPreempt("run", 5, 0).has_value());
    EXPECT_EQ(*sched.shouldPreempt("run", 5, 0), "priority");

    sched.stop();
    EXPECT_EQ(*sched.shouldPreempt("run", 100, 0), "shutdown");
}

TEST(ServiceScheduler, CancelQueuedAndFlaggedRunning)
{
    Scheduler sched(1000);
    sched.push(smallJob("a"));
    sched.push(smallJob("b"));
    EXPECT_TRUE(sched.cancelQueued("a"));
    EXPECT_FALSE(sched.cancelQueued("a")) << "already removed";
    EXPECT_EQ(sched.size(), 1u);
    EXPECT_EQ(sched.pop()->id, "b");

    // A flagged running job preempts with "cancelled", which outranks
    // every other reason, and the flag persists until consumed.
    sched.flagCancel("run");
    sched.stop(); // even shutdown loses to cancellation
    ASSERT_TRUE(sched.shouldPreempt("run", 0, 0).has_value());
    EXPECT_EQ(*sched.shouldPreempt("run", 0, 0), "cancelled");
    EXPECT_TRUE(sched.takeCancelFlag("run"));
    EXPECT_FALSE(sched.takeCancelFlag("run")) << "flag must consume";
    EXPECT_EQ(*sched.shouldPreempt("run", 0, 0), "shutdown");
}

// ---------------------------------------------------------------------
// Event stream

/** Crude field scraping, good enough for our own single-level lines. */
std::string
field(const std::string& line, const std::string& key)
{
    std::string needle = "\"" + key + "\":";
    size_t at = line.find(needle);
    if (at == std::string::npos)
        return "";
    size_t begin = at + needle.size();
    size_t end = begin;
    if (line[begin] == '"') {
        end = line.find('"', ++begin);
    } else {
        while (end < line.size() && line[end] != ','
               && line[end] != '}')
            ++end;
    }
    return line.substr(begin, end - begin);
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(ServiceEvents, EveryLineIsValidVersionedJson)
{
    std::ostringstream out;
    EventSink sink(&out);
    ScanJob job = smallJob("ev");
    sink.queued(job, 1);
    sink.started(job.id);
    McProgress mc;
    mc.trialsDone = 128;
    mc.totalTrials = 600;
    mc.failures = 3;
    mc.shotsPerSec = 0.0; // unknown rate renders as null, not Infinity
    mc.etaSeconds = -1.0;
    sink.progress(job.id, 0, 3, 8e-3, 'Z', mc, 128, 1200);
    sink.pointDone(job.id, 0, 3, 8e-3, 'Z', 600, 7, false);
    sink.preempted(job.id, "quantum", 600);
    sink.resumed(job.id);
    sink.done(job.id, 1200, 11, 2);
    sink.error("", "bad_request", "quote \"me\" right");
    // A rejected request is quoted back: well-formed UTF-8 passes, a
    // byte that is not UTF-8 becomes \u00XX and a NUL \u0000.
    using namespace std::string_literals;
    sink.error("", "bad_request", "id=caf\xc3\xa9 trials=1\xff" "0 n=1\0" "2"s);

    std::vector<std::string> lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 9u);
    ASSERT_EQ(sink.eventsEmitted(), 9u);
    uint64_t prevSeq = 0;
    for (const std::string& line : lines) {
        std::string lintErr;
        EXPECT_TRUE(obs::jsonLint(line, &lintErr))
            << line << "\n" << lintErr;
        EXPECT_EQ(field(line, "schema"), service::kJobEventSchema);
        uint64_t seq = std::stoull(field(line, "seq"));
        EXPECT_GT(seq, prevSeq) << "seq must strictly increase";
        prevSeq = seq;
    }
    EXPECT_EQ(field(lines[2], "shots_per_sec"), "null")
        << "unknown rate must be JSON null: " << lines[2];
    EXPECT_EQ(field(lines[2], "eta_seconds"), "null");
    EXPECT_EQ(field(lines[4], "reason"), "quantum");
    EXPECT_NE(lines[8].find("\"id=caf\xc3\xa9 trials=1\\u00ff0 n=1\\u00002\""),
              std::string::npos)
        << lines[8];
}

// ---------------------------------------------------------------------
// Service end to end (in process)

std::string
tmpStateDir()
{
    // gtest's TempDir always exists; files are per-test-name.
    return testing::TempDir();
}

void
removeJobState(const JobService& svc, const std::string& id)
{
    std::remove(svc.checkpointPath(id).c_str());
    std::remove((svc.checkpointPath(id) + ".tmp").c_str());
}

TEST(ServiceEndToEnd, RejectionEmitsErrorEventAndRunsNothing)
{
    std::ostringstream out;
    EventSink sink(&out);
    JobServiceConfig cfg;
    cfg.stateDir = tmpStateDir();
    JobService svc(cfg, sink);

    ScanJob bad = smallJob("rejected");
    bad.decoder = "nope";
    EXPECT_FALSE(svc.submit(bad));
    EXPECT_EQ(svc.queueDepth(), 0u);
    EXPECT_EQ(svc.runUntilDrained(), 0)
        << "a rejected job never enters the queue, so it is not a "
           "failed run";

    std::vector<std::string> lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(field(lines[0], "event"), "error");
    EXPECT_EQ(field(lines[0], "code"), "bad_request");
    EXPECT_NE(lines[0].find("registered decoders"), std::string::npos);
}

TEST(ServiceEndToEnd, DuplicateIdIsRejected)
{
    std::ostringstream out;
    EventSink sink(&out);
    JobServiceConfig cfg;
    cfg.stateDir = tmpStateDir();
    JobService svc(cfg, sink);
    EXPECT_TRUE(svc.submit(smallJob("dup")));
    EXPECT_FALSE(svc.submit(smallJob("dup")));
    EXPECT_EQ(svc.queueDepth(), 1u);
}

TEST(ServiceEndToEnd, CancelQueuedJobIsImmediateAndTerminal)
{
    std::ostringstream out;
    EventSink sink(&out);
    JobServiceConfig cfg;
    cfg.stateDir = tmpStateDir();
    JobService svc(cfg, sink);

    ScanJob keep = smallJob("cq-keep");
    ScanJob drop = smallJob("cq-drop");
    removeJobState(svc, keep.id);
    removeJobState(svc, drop.id);
    ASSERT_TRUE(svc.submit(keep));
    ASSERT_TRUE(svc.submit(drop));
    ASSERT_EQ(svc.queueDepth(), 2u);

    // Unknown ids and double-cancels are errors, never silent.
    EXPECT_FALSE(svc.cancel("never-submitted"));
    EXPECT_TRUE(svc.submitLine("cancel id=cq-drop"));
    EXPECT_EQ(svc.queueDepth(), 1u);
    EXPECT_FALSE(svc.cancel(drop.id)) << "already terminal";

    EXPECT_EQ(svc.runUntilDrained(), 0)
        << "cancellation is not a failed job";

    std::string lastDropEvent;
    bool dropRan = false;
    for (const std::string& line : splitLines(out.str())) {
        if (field(line, "job") != drop.id)
            continue;
        lastDropEvent = field(line, "event");
        if (lastDropEvent == "started" || lastDropEvent == "progress")
            dropRan = true;
        if (lastDropEvent == "cancelled") {
            EXPECT_EQ(field(line, "stage"), "queued") << line;
        }
    }
    EXPECT_FALSE(dropRan) << "cancelled while queued must never run";
    EXPECT_EQ(lastDropEvent, "error") << "double cancel errors last";
    removeJobState(svc, keep.id);
}

TEST(ServiceEndToEnd, RequeueRotatesQueuedJobBehindItsPeer)
{
    std::ostringstream out;
    EventSink sink(&out);
    JobServiceConfig cfg;
    cfg.stateDir = tmpStateDir();
    JobService svc(cfg, sink);

    ScanJob first = smallJob("rq-first");
    ScanJob second = smallJob("rq-second");
    second.seed = 23;
    removeJobState(svc, first.id);
    removeJobState(svc, second.id);
    ASSERT_TRUE(svc.submit(first));
    ASSERT_TRUE(svc.submit(second));

    // Unknown ids error; a known queued id rotates via the wire verb.
    EXPECT_FALSE(svc.requeue("never-submitted"));
    EXPECT_TRUE(svc.submitLine("requeue id=rq-first"));
    EXPECT_EQ(svc.queueDepth(), 2u) << "requeue never drops a job";

    ASSERT_EQ(svc.runUntilDrained(), 0);

    // The rotated job must still finish -- after its untouched peer.
    std::vector<std::string> started;
    bool sawRequeued = false;
    for (const std::string& line : splitLines(out.str())) {
        std::string event = field(line, "event");
        if (event == "started")
            started.push_back(field(line, "job"));
        if (event == "requeued") {
            sawRequeued = true;
            EXPECT_EQ(field(line, "job"), first.id) << line;
            EXPECT_EQ(field(line, "queue_depth"), "2") << line;
        }
    }
    EXPECT_TRUE(sawRequeued);
    ASSERT_EQ(started.size(), 2u);
    EXPECT_EQ(started[0], second.id);
    EXPECT_EQ(started[1], first.id);

    // Terminal ids have no queue position left to rotate.
    EXPECT_FALSE(svc.requeue(first.id));
    removeJobState(svc, first.id);
    removeJobState(svc, second.id);
}


/**
 * The tentpole invariant: two interleaving jobs, forced through many
 * quantum preemptions, finish with per-point counts identical to solo
 * uninterrupted engine runs of the same configuration.
 */
TEST(ServiceEndToEnd, InterleavedJobsMatchSoloRunsBitIdentically)
{
    std::ostringstream out;
    EventSink sink(&out);
    JobServiceConfig cfg;
    cfg.stateDir = tmpStateDir();
    cfg.quantumTrials = 128; // tiny: force round-robin churn
    cfg.progressEveryTrials = 64;
    JobService svc(cfg, sink);

    ScanJob jobA = smallJob("twin-a");
    ScanJob jobB = smallJob("twin-b");
    jobB.seed = 22;
    jobB.setup = 4;
    removeJobState(svc, jobA.id);
    removeJobState(svc, jobB.id);
    ASSERT_TRUE(svc.submit(jobA));
    ASSERT_TRUE(svc.submit(jobB));
    ASSERT_EQ(svc.runUntilDrained(), 0);

    // Stream sanity: monotone per-job trials_done, >=1 preemption.
    std::vector<std::string> lines = splitLines(out.str());
    std::map<std::string, uint64_t> highWater;
    int preemptions = 0;
    for (const std::string& line : lines) {
        std::string lintErr;
        ASSERT_TRUE(obs::jsonLint(line, &lintErr)) << lintErr;
        std::string event = field(line, "event");
        ASSERT_NE(event, "error") << line;
        if (event == "preempted")
            ++preemptions;
        if (event == "progress" || event == "preempted") {
            uint64_t done = std::stoull(field(line, "trials_done"));
            uint64_t& prev = highWater[field(line, "job")];
            EXPECT_GE(done, prev) << line;
            prev = std::max(prev, done);
        }
    }
    EXPECT_GE(preemptions, 2) << "quantum 128 over 600-trial points "
                                 "must interleave the two jobs";

    // Count comparison: every point_done must equal a solo
    // uninterrupted run with the same knobs.
    for (const ScanJob& job : {jobA, jobB}) {
        EvaluationSetup setup = service::jobSetup(job);
        ThresholdScanConfig scan = service::jobScanConfig(job);
        for (CheckBasis basis : {CheckBasis::Z, CheckBasis::X}) {
            GeneratorConfig gc;
            gc.distance = scan.distances[0];
            gc.cavityDepth = scan.cavityDepth;
            gc.schedule = setup.schedule;
            gc.gapModel = scan.gapModel;
            gc.noise = NoiseModel::atPhysicalRate(
                scan.physicalPs[0], scan.hardware,
                scan.scaleCoherence);
            gc.memoryBasis = basis;
            BinomialEstimate solo = estimateLogicalErrorBasis(
                setup.embedding, gc, scan.mc);

            bool matched = false;
            for (const std::string& line : lines) {
                if (field(line, "event") != "point_done"
                    || field(line, "job") != job.id
                    || field(line, "basis")
                           != (basis == CheckBasis::X ? "X" : "Z"))
                    continue;
                matched = true;
                EXPECT_EQ(std::stoull(field(line, "trials")),
                          solo.trials)
                    << line;
                EXPECT_EQ(std::stoull(field(line, "failures")),
                          solo.successes)
                    << line;
            }
            EXPECT_TRUE(matched)
                << "no point_done for " << job.id << " basis "
                << (basis == CheckBasis::X ? 'X' : 'Z');
        }
        removeJobState(svc, job.id);
    }
}

/**
 * An ostream that watches the event stream passing through it and
 * fires `onProgress` at the first event containing `needle` (by
 * default the first `progress` event) -- a deterministic way to
 * request shutdown mid-run (every EventSink line arrives as one
 * xsputn call, so matching inside a write sees whole lines).
 */
class TriggerStream : public std::streambuf, public std::ostream
{
  public:
    explicit TriggerStream(std::function<void()> onProgress,
                           std::string needle = "\"event\":\"progress\"")
        : std::ostream(this), onProgress_(std::move(onProgress)),
          needle_(std::move(needle))
    {
    }

    std::string str() const { return text_; }

  protected:
    std::streamsize xsputn(const char* s, std::streamsize n) override
    {
        text_.append(s, static_cast<size_t>(n));
        if (!fired_ && text_.find(needle_) != std::string::npos) {
            fired_ = true;
            onProgress_();
        }
        return n;
    }

    int overflow(int c) override
    {
        if (c != EOF)
            text_ += static_cast<char>(c);
        return c;
    }

  private:
    std::function<void()> onProgress_;
    std::string needle_;
    std::string text_;
    bool fired_ = false;
};

TEST(ServiceEndToEnd, ShutdownSuspendsAndASecondServiceResumes)
{
    JobServiceConfig cfg;
    cfg.stateDir = tmpStateDir();
    cfg.quantumTrials = 64;
    cfg.progressEveryTrials = 64;

    ScanJob job = smallJob("susp");
    job.trials = 900;
    job.batchSize = 32;

    JobService* running = nullptr;
    TriggerStream out1([&]() { running->requestShutdown(); });
    {
        EventSink sink(&out1);
        JobService svc(cfg, sink);
        running = &svc;
        removeJobState(svc, job.id);
        ASSERT_TRUE(svc.submit(job));
        // The first progress event requests shutdown; the next batch
        // boundary suspends the job into its checkpoint.
        svc.runUntilDrained();
        running = nullptr;
    }
    ASSERT_NE(out1.str().find("\"event\":\"preempted\""),
              std::string::npos)
        << "expected a shutdown preemption:\n" << out1.str();
    ASSERT_NE(out1.str().find("\"reason\":\"shutdown\""),
              std::string::npos);

    // Second session, same state dir: resumes and finishes.
    std::ostringstream out2;
    EventSink sink2(&out2);
    JobService svc2(cfg, sink2);
    ASSERT_TRUE(svc2.submit(job));
    ASSERT_EQ(svc2.runUntilDrained(), 0);
    EXPECT_NE(out2.str().find("\"event\":\"resumed\""),
              std::string::npos)
        << out2.str();
    EXPECT_NE(out2.str().find("\"event\":\"done\""), std::string::npos);

    // Resumed final counts equal a solo uninterrupted run.
    EvaluationSetup setup = service::jobSetup(job);
    ThresholdScanConfig scan = service::jobScanConfig(job);
    GeneratorConfig gc;
    gc.distance = scan.distances[0];
    gc.cavityDepth = scan.cavityDepth;
    gc.schedule = setup.schedule;
    gc.gapModel = scan.gapModel;
    gc.noise = NoiseModel::atPhysicalRate(
        scan.physicalPs[0], scan.hardware, scan.scaleCoherence);
    gc.memoryBasis = CheckBasis::Z;
    BinomialEstimate solo =
        estimateLogicalErrorBasis(setup.embedding, gc, scan.mc);
    bool matched = false;
    for (const std::string& line : splitLines(out2.str())) {
        if (field(line, "event") != "point_done"
            || field(line, "basis") != "Z")
            continue;
        matched = true;
        EXPECT_EQ(std::stoull(field(line, "trials")), solo.trials);
        EXPECT_EQ(std::stoull(field(line, "failures")),
                  solo.successes);
    }
    EXPECT_TRUE(matched);
    removeJobState(svc2, job.id);
}

TEST(ServiceEndToEnd, CancelRunningJobStopsAtBatchBoundary)
{
    JobServiceConfig cfg;
    cfg.stateDir = tmpStateDir();
    cfg.progressEveryTrials = 64;

    ScanJob job = smallJob("cr");
    job.trials = 900;
    job.batchSize = 32;

    JobService* running = nullptr;
    TriggerStream out([&]() { running->cancel("cr"); });
    EventSink sink(&out);
    JobService svc(cfg, sink);
    running = &svc;
    removeJobState(svc, job.id);
    ASSERT_TRUE(svc.submit(job));
    EXPECT_EQ(svc.runUntilDrained(), 0);
    running = nullptr;

    std::string lastEvent;
    for (const std::string& line : splitLines(out.str())) {
        if (field(line, "job") != job.id)
            continue;
        lastEvent = field(line, "event");
        if (lastEvent == "cancelled") {
            EXPECT_EQ(field(line, "stage"), "running") << line;
        }
    }
    EXPECT_EQ(lastEvent, "cancelled")
        << "terminal event must be 'cancelled', stream:\n" << out.str();

    // The frontier survives: a later session resumes the job and its
    // final counts match a solo uninterrupted run bit-identically.
    std::ostringstream out2;
    EventSink sink2(&out2);
    JobService svc2(cfg, sink2);
    ASSERT_TRUE(svc2.submit(job));
    ASSERT_EQ(svc2.runUntilDrained(), 0);
    EXPECT_NE(out2.str().find("\"event\":\"resumed\""),
              std::string::npos)
        << out2.str();
    EXPECT_NE(out2.str().find("\"event\":\"done\""), std::string::npos);
    removeJobState(svc2, job.id);
}

/**
 * Shutdown requested on the commit that completes a job's first point:
 * the engine finds nothing left to drain and finishes the point, and
 * the job must then suspend before its second point, not set that
 * point up only to stop it at its first commit.
 */
TEST(ServiceEndToEnd, ShutdownOnAPointsLastCommitSuspendsBeforeTheNextPoint)
{
    JobServiceConfig cfg;
    cfg.stateDir = tmpStateDir();
    cfg.progressEveryTrials = 64;

    ScanJob job = smallJob("edge"); // points 0 (Z) and 1 (X), 600 each

    JobService* running = nullptr;
    // The commit that completes point 0 always emits `progress`.
    TriggerStream out1([&]() { running->requestShutdown(); },
                       "\"point_trials_done\":600,");
    {
        EventSink sink(&out1);
        JobService svc(cfg, sink);
        running = &svc;
        removeJobState(svc, job.id);
        ASSERT_TRUE(svc.submit(job));
        svc.runUntilDrained();
        running = nullptr;
    }
    std::vector<std::string> events;
    for (const std::string& line : splitLines(out1.str())) {
        const std::string event = field(line, "event");
        if (event == "progress" || event == "point_done") {
            EXPECT_EQ(field(line, "point"), "0") << line;
        }
        if (event == "preempted") {
            EXPECT_EQ(field(line, "reason"), "shutdown") << line;
            EXPECT_EQ(field(line, "trials_done"), "600") << line;
        }
        events.push_back(event);
    }
    ASSERT_GE(events.size(), 2u) << out1.str();
    EXPECT_EQ(events[events.size() - 2], "point_done") << out1.str();
    EXPECT_EQ(events.back(), "preempted") << out1.str();

    // Second session: point 0 replays as cached, point 1 runs.
    std::ostringstream out2;
    EventSink sink2(&out2);
    JobService svc2(cfg, sink2);
    ASSERT_TRUE(svc2.submit(job));
    ASSERT_EQ(svc2.runUntilDrained(), 0);
    bool replayed = false;
    for (const std::string& line : splitLines(out2.str())) {
        if (field(line, "event") == "point_done"
            && field(line, "point") == "0") {
            replayed = true;
            EXPECT_EQ(field(line, "cached"), "true") << line;
        }
        if (field(line, "event") == "done") {
            EXPECT_EQ(field(line, "trials"), "1200") << line;
        }
    }
    EXPECT_TRUE(replayed) << out2.str();
    EXPECT_NE(out2.str().find("\"event\":\"done\""), std::string::npos);
    removeJobState(svc2, job.id);
}

// ---------------------------------------------------------------------
// Heartbeat rendering (the resumed-session inf/garbage ETA bugfix)

TEST(ServiceHeartbeat, UnknownRateRendersDashesNotInf)
{
    McProgress p;
    p.trialsDone = 100;
    p.totalTrials = 400;
    p.failures = 2;
    p.shotsPerSec = 0.0;
    p.etaSeconds = -1.0;
    std::string line = p.heartbeatString();
    EXPECT_NE(line.find("-- shots/s"), std::string::npos) << line;
    EXPECT_NE(line.find("eta --"), std::string::npos) << line;
    EXPECT_EQ(line.find("inf"), std::string::npos) << line;
    EXPECT_EQ(line.find("nan"), std::string::npos) << line;
}

TEST(ServiceHeartbeat, KnownRateRendersNumbers)
{
    McProgress p;
    p.trialsDone = 100;
    p.totalTrials = 400;
    p.failures = 2;
    p.shotsPerSec = 1.25e5;
    p.etaSeconds = 3.0;
    std::string line = p.heartbeatString();
    EXPECT_NE(line.find("shots/s"), std::string::npos) << line;
    EXPECT_EQ(line.find("--"), std::string::npos) << line;
}

} // namespace
} // namespace vlq
