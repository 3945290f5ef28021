#include "workload/suite.hh"

#include <cmath>

#include "base/logging.hh"

namespace mspdsm
{

const std::vector<AppInfo> &
appSuite()
{
    static const std::vector<AppInfo> suite = {
        {"appbt", "12x12x12 cubes", 40, "16p, 14+8 boundary blks/proc",
         12, makeAppbt},
        {"barnes", "4K particles", 21, "16p, 200 octree cells", 10,
         makeBarnes},
        {"em3d", "76800 nodes, 15% remote", 50,
         "16p, 24 boundary blks/proc", 20, makeEm3d},
        {"moldyn", "2048 particles", 60,
         "16p, 10 force blks/proc + 16x5 migratory", 15, makeMoldyn},
        {"ocean", "130x130 array", 12,
         "16p, 12+4 boundary blks/proc + reduction", 12, makeOcean},
        {"tomcatv", "128x128 array", 50, "16p, 16 boundary blks/proc",
         20, makeTomcatv},
        {"unstructured", "mesh.2K", 50,
         "16p, 4 wide-shared blks/proc + 16x8 reduction", 10,
         makeUnstructured},
    };
    return suite;
}

Workload
makeApp(const std::string &name, const AppParams &p)
{
    // The generators size regions as unsigned(k * scale); a negative
    // or non-finite scale would make that conversion undefined.
    fatal_if(!std::isfinite(p.scale) || p.scale < 0.0,
             "workload scale ", p.scale,
             " must be finite and non-negative");
    for (const AppInfo &info : appSuite()) {
        if (info.name == name) {
            AppParams q = p;
            if (q.iterations == 0)
                q.iterations = info.defaultIters;
            // Every generator allocates one home region per proc, so
            // the layout geometry must cover numProcs nodes; growing
            // it here protects every caller, not just the harness
            // (which pre-syncs the two so the workload-cache key and
            // the machine geometry agree exactly).
            if (q.proto.numNodes < q.numProcs)
                q.proto.numNodes = q.numProcs;
            return info.make(q);
        }
    }
    fatal("unknown application '", name, "'");
}

} // namespace mspdsm
