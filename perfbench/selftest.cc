/**
 * @file
 * Self-test of the benchmark's own machinery. Exit 0 iff:
 *  - the audit passes an honest report and flags a doctored copy with
 *    one result dropped and another duplicated;
 *  - the timing decorators around the policy and the router are
 *    bit-transparent: on a small variant of every workload, the
 *    decorated and the plain drain give equal digests.
 *
 *   perfbench_selftest
 */

#include <cstdio>
#include <string>

#include "workloads.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += !ok;
}

void
auditFlagsDoctoredReport()
{
    const Workload w = smallVariant(findWorkload("fleet_cold"));
    const serve::ArrivalTrace trace = generateTrace(w, 1);
    const serve::DevicePool pool = buildPool(w);
    const serve::ServingReport honest = serveTrace(w, pool, trace);
    check(auditReport(honest, trace).clean(), "audit passes an honest drain");

    serve::ServingReport doctored = honest;
    doctored.results.erase(doctored.results.begin() + 3);
    doctored.results.push_back(doctored.results[5]);
    const Audit a = auditReport(doctored, trace);
    check(!a.clean() && a.notExactlyOnce == 2 && a.failed() > 0,
          "audit flags one dropped and one duplicated result (" +
              a.violations() + ")");
}

void
decoratorsAreTransparent(const Workload &full)
{
    const Workload w = smallVariant(full);
    const serve::ArrivalTrace trace = generateTrace(w, 7);
    const serve::DevicePool pool = buildPool(w);
    const serve::ServingReport plain = serveTrace(w, pool, trace);
    CallProbes probes;
    const serve::ServingReport decorated =
        serveTrace(w, pool, trace, &probes);
    const Audit audit = auditReport(decorated, trace);
    check(digest(plain) == digest(decorated) && audit.clean() &&
              probes.routerTotal().calls > 0,
          w.name + ": decorated drain matches the plain one (" +
              std::to_string(trace.size()) + " requests, digest " +
              digest(plain) + ", " +
              std::to_string(probes.routerTotal().calls) +
              " router calls)");
}

} // namespace

int
main()
{
    try {
        auditFlagsDoctoredReport();
        for (const Workload &w : workloads())
            decoratorsAreTransparent(w);
    } catch (const std::exception &e) {
        std::printf("FAIL: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n", failures ? "self-test FAILED" : "self-test passed");
    return failures ? 1 : 0;
}
