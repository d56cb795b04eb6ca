/**
 * @file
 * scan_server: the scan job service as a headless executable. Reads
 * vlq-scan-job/1 request lines (file, FIFO, or stdin), multiplexes
 * the submitted threshold-scan jobs over one process with priority
 * scheduling and batch-boundary preemption, and streams JSONL events
 * (docs/job-protocol.md) to the events file. Nothing is kept warm
 * between points: each builds its circuit, DEM, sampler and decoder.
 *
 * Usage:
 *   scan_server --requests <path|-> --events <path|-> --state-dir <dir>
 *               [--quantum <trials>] [--threads <n>]
 *               [--progress-every <trials>] [--checkpoint-every <trials>]
 *               [--follow] [--metrics-json <path>] [--trace-json <path>]
 *
 * Batch mode (default): read every request, run the queue dry, exit 0
 * (1 when any job ended in a terminal `error` event). --follow keeps
 * tailing the request file on a poller thread, so a higher-priority
 * submission lands while a job is running and preempts it at the next
 * batch boundary; a `shutdown` request line ends the session.
 *
 * Kill/resume: the server keeps all job state in per-job checkpoint
 * files under --state-dir. SIGKILL it at any moment, rerun the same
 * command, and every job resumes from its last committed batch --
 * final counts are bit-identical to a never-killed run (the CI smoke
 * proves this with cmp against solo threshold_scan checkpoints).
 * The events file is truncated per session; keep per-session paths
 * when the full history matters.
 */
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "obs/obs.h"
#include "service/job_service.h"
#include "util/env.h"

using namespace vlq;

namespace {

int
usage(std::ostream& os, const char* argv0)
{
    os << "usage: " << argv0
       << " --requests <path|-> --events <path|-> --state-dir <dir>\n"
          "  [--quantum <trials>] [--threads <n>]"
          " [--progress-every <trials>]\n"
          "  [--checkpoint-every <trials>] [--follow]\n"
          "  [--metrics-json <path>] [--trace-json <path>]\n"
          "\n"
          "Request lines (vlq-scan-job/1, see docs/job-protocol.md):\n"
          "  submit id=<id> [priority=<-100..100>] [setup=<0..4>]\n"
          "    [embedding=<name>] [schedule=aao|interleaved]\n"
          "    [distances=3,5,7] [ps=3e-3,...] [trials=<n>] [seed=<n>]\n"
          "    [decoder=<name>] [batch=<n>] [target=<n>]\n"
          "  cancel id=<id>\n"
          "  requeue id=<id>\n"
          "  shutdown\n";
    return 1;
}

/**
 * Incremental reader of the request file: poll() feeds every new
 * *complete* line to the service, remembering the offset, so the
 * --follow poller never re-submits and never splits a line a client
 * is still appending.
 */
class RequestReader
{
  public:
    RequestReader(std::istream& in, service::JobService& service)
        : in_(in), service_(service)
    {
    }

    /** Read all complete lines currently available. */
    void poll()
    {
        std::string line;
        while (true) {
            std::streampos before = in_.tellg();
            if (!std::getline(in_, line)) {
                // EOF mid-line: rewind so the partial line is re-read
                // once the writer finishes it.
                in_.clear();
                if (before != std::streampos(-1))
                    in_.seekg(before);
                return;
            }
            service_.submitLine(line);
        }
    }

  private:
    std::istream& in_;
    service::JobService& service_;
};

} // namespace

int
main(int argc, char** argv)
{
    obs::initFromEnv();
    std::string requestsPath;
    std::string eventsPath;
    std::string metricsJsonPath;
    std::string traceJsonPath;
    service::JobServiceConfig config;
    bool follow = false;

    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        auto value = [&](std::string* out) {
            if (i + 1 >= argc) {
                std::cerr << "error: " << arg << " needs a value\n";
                return false;
            }
            *out = argv[++i];
            return true;
        };
        // A count in 0..max, the range of the field it is stored in.
        auto count = [&](uint64_t* out,
                         int64_t max = std::numeric_limits<int64_t>::max()) {
            std::string text;
            if (!value(&text))
                return false;
            auto parsed = parseBounded(arg, text, 0, max);
            if (!parsed)
                return false;
            *out = static_cast<uint64_t>(*parsed);
            return true;
        };
        uint64_t n = 0;
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, argv[0]) && 0;
        else if (arg == "--requests") {
            if (!value(&requestsPath))
                return usage(std::cerr, argv[0]);
        } else if (arg == "--events") {
            if (!value(&eventsPath))
                return usage(std::cerr, argv[0]);
        } else if (arg == "--state-dir") {
            if (!value(&config.stateDir))
                return usage(std::cerr, argv[0]);
        } else if (arg == "--quantum") {
            if (!count(&config.quantumTrials))
                return usage(std::cerr, argv[0]);
        } else if (arg == "--threads") {
            if (!count(&n, std::numeric_limits<unsigned>::max()))
                return usage(std::cerr, argv[0]);
            config.threads = static_cast<unsigned>(n);
        } else if (arg == "--progress-every") {
            if (!count(&config.progressEveryTrials))
                return usage(std::cerr, argv[0]);
        } else if (arg == "--checkpoint-every") {
            if (!count(&config.checkpointEveryTrials))
                return usage(std::cerr, argv[0]);
        } else if (arg == "--follow") {
            follow = true;
        } else if (arg == "--metrics-json") {
            if (!value(&metricsJsonPath))
                return usage(std::cerr, argv[0]);
        } else if (arg == "--trace-json") {
            if (!value(&traceJsonPath))
                return usage(std::cerr, argv[0]);
        } else {
            std::cerr << "error: unknown argument '" << arg << "'\n";
            return usage(std::cerr, argv[0]);
        }
    }
    obs::applyCliPaths(metricsJsonPath, traceJsonPath);
    if (requestsPath.empty() || eventsPath.empty()) {
        std::cerr << "error: --requests and --events are required\n";
        return usage(std::cerr, argv[0]);
    }

    // Open the event stream: stdout or a per-session file (truncated;
    // an appended file would restart seq mid-stream and break the
    // strictly-increasing guarantee).
    std::ofstream eventsFile;
    std::ostream* eventsOut = &std::cout;
    if (eventsPath != "-") {
        eventsFile.open(eventsPath, std::ios::trunc);
        if (!eventsFile) {
            std::cerr << "error: cannot open events file '" << eventsPath
                      << "'\n";
            return 1;
        }
        eventsOut = &eventsFile;
    }

    std::ifstream requestsFile;
    std::istream* requestsIn = &std::cin;
    if (requestsPath != "-") {
        requestsFile.open(requestsPath);
        if (!requestsFile) {
            std::cerr << "error: cannot open requests file '"
                      << requestsPath << "'\n";
            return 1;
        }
        requestsIn = &requestsFile;
    }

    service::EventSink events(eventsOut);
    service::JobService jobService(config, events);
    RequestReader reader(*requestsIn, jobService);

    reader.poll();
    int failed = 0;
    if (!follow) {
        failed = jobService.runUntilDrained();
    } else {
        // Poller thread: new requests land mid-job and preempt at the
        // next batch boundary; `shutdown` ends the session.
        std::thread poller([&]() {
            while (!jobService.shutdownRequested()) {
                reader.poll();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
        });
        while (!jobService.shutdownRequested()) {
            failed = jobService.runUntilDrained();
            if (jobService.shutdownRequested())
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        poller.join();
    }

    std::string obsErr;
    if (!obs::finalize(&obsErr)) {
        std::cerr << "error: " << obsErr << "\n";
        return 1;
    }
    return failed > 0 ? 1 : 0;
}
