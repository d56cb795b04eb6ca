#include "mc/threshold.h"

#include <cmath>
#include <sstream>

#include "core/generator_registry.h"
#include "mc/checkpoint.h"
#include "util/stats.h"

namespace vlq {

GeneratorConfig
thresholdPointConfig(const EvaluationSetup& setup,
                     const ThresholdScanConfig& config, int distance,
                     double physicalP)
{
    GeneratorConfig gc;
    gc.distance = distance;
    gc.cavityDepth = config.cavityDepth;
    gc.schedule = setup.schedule;
    gc.gapModel = config.gapModel;
    gc.noise = NoiseModel::atPhysicalRate(physicalP, config.hardware,
                                          config.scaleCoherence);
    return gc;
}

std::string
thresholdScanFingerprint(const EvaluationSetup& setup,
                         const ThresholdScanConfig& config)
{
    std::ostringstream os;
    os << "scan=threshold " << mcRunFingerprintSummary(config.mc)
       << " embedding=" << embeddingKindName(setup.embedding)
       << " schedule="
       << (setup.schedule == ExtractionSchedule::Interleaved
               ? "interleaved" : "aao")
       << " k=" << config.cavityDepth
       << " scaleCoherence=" << (config.scaleCoherence ? 1 : 0)
       << " gap="
       << (config.gapModel == PagingGapModel::PerRound ? "per-round"
                                                       : "block-once")
       << " distances=";
    for (size_t i = 0; i < config.distances.size(); ++i)
        os << (i ? "," : "") << config.distances[i];
    os << " ps=";
    for (size_t i = 0; i < config.physicalPs.size(); ++i)
        os << (i ? "," : "") << canonicalDouble(config.physicalPs[i]);
    if (!config.distances.empty() && !config.physicalPs.empty()) {
        const GeneratorConfig gc = thresholdPointConfig(
            setup, config, config.distances.front(),
            config.physicalPs.front());
        os << " base=" << hex16(checkpointPointKey(setup.embedding, gc));
    }
    return os.str();
}

ThresholdResult
scanThreshold(const EvaluationSetup& setup, const ThresholdScanConfig& config)
{
    ThresholdResult result;
    result.setup = setup;

    // Grid-level checkpointing: stamp the scan's fingerprint so every
    // point shares one validated state file and a resumed scan skips
    // its completed points entirely.
    McOptions mc = config.mc;
    if (!mc.checkpointPath.empty() && mc.checkpointFingerprint.empty())
        mc.checkpointFingerprint = thresholdScanFingerprint(setup, config);

    for (int d : config.distances) {
        ThresholdCurve curve;
        curve.distance = d;
        for (double p : config.physicalPs) {
            LogicalErrorPoint point = estimateLogicalError(
                setup.embedding, thresholdPointConfig(setup, config, d, p),
                mc);
            if (config.pointProgress)
                config.pointProgress(point);
            curve.physicalPs.push_back(p);
            curve.points.push_back(point);
        }
        result.curves.push_back(std::move(curve));
    }
    result.pth = estimateThresholdFromCurves(result.curves);
    return result;
}

double
suppressionFactor(const std::vector<ThresholdCurve>& curves,
                  double physicalP)
{
    if (curves.empty() || curves.front().physicalPs.empty())
        return -1.0;
    // Sampled p closest to the requested one (log distance).
    size_t best = 0;
    double bestDist = 1e300;
    for (size_t j = 0; j < curves.front().physicalPs.size(); ++j) {
        double d = std::fabs(std::log(curves.front().physicalPs[j])
                             - std::log(physicalP));
        if (d < bestDist) {
            bestDist = d;
            best = j;
        }
    }
    double logSum = 0.0;
    int count = 0;
    for (size_t i = 0; i + 1 < curves.size(); ++i) {
        if (best >= curves[i].points.size() ||
            best >= curves[i + 1].points.size())
            continue;
        double hi = curves[i].points[best].combinedRate();
        double lo = curves[i + 1].points[best].combinedRate();
        if (hi <= 0.0 || lo <= 0.0)
            continue;
        logSum += std::log(hi / lo);
        ++count;
    }
    if (count == 0)
        return -1.0;
    return std::exp(logSum / count);
}

double
estimateThresholdFromCurves(const std::vector<ThresholdCurve>& curves)
{
    std::vector<double> crossings;
    for (size_t i = 0; i + 1 < curves.size(); ++i) {
        const ThresholdCurve& a = curves[i];
        const ThresholdCurve& b = curves[i + 1];
        if (a.physicalPs != b.physicalPs)
            continue;
        std::vector<double> ya;
        std::vector<double> yb;
        for (size_t j = 0; j < a.points.size(); ++j) {
            ya.push_back(a.points[j].combinedRate());
            yb.push_back(b.points[j].combinedRate());
        }
        double x = logLogCrossing(a.physicalPs, ya, yb);
        if (x > 0)
            crossings.push_back(x);
    }
    if (crossings.empty())
        return -1.0;
    return median(crossings);
}

} // namespace vlq
