/**
 * @file
 * scan_client: thin client for the scan job service. Builds and
 * validates vlq-scan-job/1 request lines, appends them to a
 * scan_server request file (or FIFO), and summarizes JSONL event
 * streams (docs/job-protocol.md).
 *
 * Usage:
 *   scan_client submit --requests <path|-> --id <id>
 *     [--priority <-100..100>] [--setup <0..4>] [--embedding <name>]
 *     [--schedule aao|interleaved] [--distances 3,5,7]
 *     [--ps 3e-3,...] [--trials <n>] [--seed <n>] [--decoder <name>]
 *     [--batch <n>] [--target <n>] [--dry-run]
 *   scan_client cancel --requests <path|-> --id <id>
 *   scan_client requeue --requests <path|-> --id <id>
 *   scan_client shutdown --requests <path|->
 *   scan_client watch --events <path|-> [--job <id>]
 *
 * `submit` validates locally with the same validateJob pass the
 * server runs, so a typo'd decoder name fails here with the registry
 * listing instead of as a server-side error event. The written line
 * is the canonical requestLine() rendering (exact double round-trip).
 *
 * `watch` lints every event line as JSON, prints a one-line human
 * summary per event, and exits non-zero when the stream is malformed
 * or any watched job ended in a terminal `error`.
 */
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "service/job.h"
#include "service/job_validation.h"

using namespace vlq;

namespace {

int
usage(std::ostream& os, const char* argv0)
{
    os << "usage: " << argv0
       << " <submit|cancel|requeue|shutdown|watch> [flags]\n"
          "  submit --requests <path|-> --id <id>\n"
          "    [--priority <-100..100>] [--setup <0..4>]"
          " [--embedding <name>]\n"
          "    [--schedule aao|interleaved] [--distances 3,5,7]"
          " [--ps 3e-3,...]\n"
          "    [--trials <n>] [--seed <n>] [--decoder <name>]"
          " [--batch <n>]\n"
          "    [--target <n>] [--dry-run]\n"
          "  cancel --requests <path|-> --id <id>\n"
          "  requeue --requests <path|-> --id <id>\n"
          "  shutdown --requests <path|->\n"
          "  watch --events <path|-> [--job <id>]\n";
    return 1;
}

/** Append one request line to the file (or stdout for "-"). */
int
appendRequest(const std::string& path, const std::string& line)
{
    if (path == "-") {
        std::cout << line << "\n" << std::flush;
        return 0;
    }
    std::ofstream out(path, std::ios::app);
    if (!out) {
        std::cerr << "error: cannot open requests file '" << path
                  << "'\n";
        return 1;
    }
    out << line << "\n" << std::flush;
    if (!out) {
        std::cerr << "error: write to '" << path << "' failed\n";
        return 1;
    }
    return 0;
}

/**
 * Minimal field extraction for our own event lines: the sink renders
 * every string field as "key":"value" with no nested objects, so a
 * plain scan (after jsonLint has vouched for well-formedness) is
 * enough for a summary -- watch is a consumer example, not a parser.
 */
std::string
fieldString(const std::string& line, const std::string& key)
{
    const std::string needle = "\"" + key + "\":\"";
    size_t at = line.find(needle);
    if (at == std::string::npos)
        return "";
    size_t begin = at + needle.size();
    size_t end = line.find('"', begin);
    if (end == std::string::npos)
        return "";
    return line.substr(begin, end - begin);
}

std::string
fieldRaw(const std::string& line, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    size_t at = line.find(needle);
    if (at == std::string::npos)
        return "";
    size_t begin = at + needle.size();
    size_t end = begin;
    while (end < line.size() && line[end] != ',' && line[end] != '}')
        ++end;
    return line.substr(begin, end - begin);
}

int
runSubmit(const std::vector<std::pair<std::string, std::string>>& flags,
          bool dryRun)
{
    // Build the request line from the raw flag values and reuse the
    // wire-grammar parser, so client and server accept exactly the
    // same spellings (numbers, lists, ranges).
    static const std::map<std::string, std::string> flagToKey = {
        {"--id", "id"},           {"--priority", "priority"},
        {"--setup", "setup"},     {"--embedding", "embedding"},
        {"--schedule", "schedule"}, {"--distances", "distances"},
        {"--ps", "ps"},           {"--trials", "trials"},
        {"--seed", "seed"},       {"--decoder", "decoder"},
        {"--batch", "batch"},     {"--target", "target"},
    };
    std::string requestsPath;
    std::ostringstream line;
    line << "submit";
    for (const auto& [flag, value] : flags) {
        if (flag == "--requests") {
            requestsPath = value;
            continue;
        }
        auto it = flagToKey.find(flag);
        if (it == flagToKey.end()) {
            std::cerr << "error: unknown submit flag '" << flag
                      << "'\n";
            return 1;
        }
        line << " " << it->second << "=" << value;
    }

    std::string problem;
    std::optional<service::Request> request =
        service::parseRequestLine(line.str(), &problem);
    if (!request) {
        std::cerr << "error: " << problem << "\n";
        return 1;
    }
    std::vector<std::string> problems =
        service::validateJob(request->job);
    if (!problems.empty()) {
        for (const std::string& p : problems)
            std::cerr << "error: " << p << "\n";
        return 1;
    }

    const std::string canonical = request->job.requestLine();
    if (dryRun) {
        std::cout << canonical << "\n";
        return 0;
    }
    if (requestsPath.empty()) {
        std::cerr << "error: submit needs --requests (or --dry-run)\n";
        return 1;
    }
    return appendRequest(requestsPath, canonical);
}

int
runWatch(const std::string& eventsPath, const std::string& jobFilter)
{
    std::ifstream file;
    std::istream* in = &std::cin;
    if (eventsPath != "-") {
        file.open(eventsPath);
        if (!file) {
            std::cerr << "error: cannot open events file '"
                      << eventsPath << "'\n";
            return 1;
        }
        in = &file;
    }

    std::map<std::string, std::string> lastEvent; // job -> event
    uint64_t lines = 0;
    std::string line;
    int status = 0;
    while (std::getline(*in, line)) {
        if (line.empty())
            continue;
        ++lines;
        std::string lintErr;
        if (!obs::jsonLint(line, &lintErr)) {
            std::cerr << "error: malformed event line " << lines
                      << ": " << lintErr << "\n";
            return 1;
        }
        const std::string job = fieldString(line, "job");
        const std::string event = fieldString(line, "event");
        if (!jobFilter.empty() && job != jobFilter)
            continue;
        if (!job.empty())
            lastEvent[job] = event;

        std::cout << fieldRaw(line, "seq") << " " << (job.empty()
            ? "-" : job) << " " << event;
        if (event == "progress")
            std::cout << " point=" << fieldRaw(line, "point")
                      << " trials_done="
                      << fieldRaw(line, "trials_done") << "/"
                      << fieldRaw(line, "trials_budget");
        else if (event == "point_done")
            std::cout << " point=" << fieldRaw(line, "point") << " d="
                      << fieldRaw(line, "d") << " p="
                      << fieldRaw(line, "p") << " basis="
                      << fieldString(line, "basis") << " failures="
                      << fieldRaw(line, "failures") << "/"
                      << fieldRaw(line, "trials")
                      << (fieldRaw(line, "cached") == "true"
                              ? " (cached)" : "");
        else if (event == "preempted")
            std::cout << " reason=" << fieldString(line, "reason");
        else if (event == "requeued")
            std::cout << " queue_depth="
                      << fieldRaw(line, "queue_depth");
        else if (event == "cancelled")
            std::cout << " stage=" << fieldString(line, "stage");
        else if (event == "error") {
            std::cout << " code=" << fieldString(line, "code")
                      << " message="
                      << obs::jsonQuote(fieldString(line, "message"));
            status = 1;
        } else if (event == "done")
            std::cout << " failures=" << fieldRaw(line, "failures")
                      << "/" << fieldRaw(line, "trials");
        std::cout << "\n";
    }

    for (const auto& [job, event] : lastEvent)
        if (event != "done" && event != "error" && event != "cancelled")
            std::cout << "# " << job << ": in flight (last event '"
                      << event << "')\n";
    return status;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage(std::cerr, argv[0]);
    const std::string command = argv[1];
    if (command == "--help" || command == "-h")
        return usage(std::cout, argv[0]) && 0;

    bool dryRun = false;
    std::vector<std::pair<std::string, std::string>> flags;
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--dry-run") {
            dryRun = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "error: " << flag << " needs a value\n";
            return usage(std::cerr, argv[0]);
        }
        flags.emplace_back(flag, argv[++i]);
    }
    auto flagValue = [&](const std::string& name) {
        for (const auto& [flag, value] : flags)
            if (flag == name)
                return value;
        return std::string();
    };

    if (command == "submit")
        return runSubmit(flags, dryRun);
    if (command == "cancel" || command == "requeue") {
        const std::string path = flagValue("--requests");
        const std::string id = flagValue("--id");
        if (path.empty() || id.empty()) {
            std::cerr << "error: " << command
                      << " needs --requests and --id\n";
            return 1;
        }
        // Reuse the wire-grammar parser so a malformed id (spaces,
        // '=') fails here instead of as a server-side error event.
        const std::string line = command + " id=" + id;
        std::string problem;
        if (!service::parseRequestLine(line, &problem)) {
            std::cerr << "error: " << problem << "\n";
            return 1;
        }
        return appendRequest(path, line);
    }
    if (command == "shutdown") {
        const std::string path = flagValue("--requests");
        if (path.empty()) {
            std::cerr << "error: shutdown needs --requests\n";
            return 1;
        }
        return appendRequest(path, "shutdown");
    }
    if (command == "watch") {
        const std::string path = flagValue("--events");
        if (path.empty()) {
            std::cerr << "error: watch needs --events\n";
            return 1;
        }
        return runWatch(path, flagValue("--job"));
    }
    std::cerr << "error: unknown command '" << command << "'\n";
    return usage(std::cerr, argv[0]);
}
