/**
 * @file
 * The twelve evaluation workloads (paper Sec. VI-C).
 *
 * Data-structure benchmarks run an insert-only workload with random
 * keys to mimic bulk insertion into a database index; STAMP kernels
 * are re-implemented as access-pattern-faithful C++ against the
 * sim-heap (same data-structure shapes, read/write mixes, sharing
 * patterns, and working-set sizes; see DESIGN.md substitutions).
 */

#ifndef NVO_WORKLOAD_WORKLOADS_HH
#define NVO_WORKLOAD_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "tenant/asid.hh"
#include "workload/stamp_common.hh"
#include "workload/workload.hh"

namespace nvo
{

/** std::unordered_map-style chained hash table, global lock. */
class HashTableWorkload : public WorkloadBase
{
  public:
    HashTableWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "hashtable"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

    std::uint64_t entries() const { return set.size(); }

  private:
    SimHashSet set;
    double lookupPct;
    Addr lockAddr;
};

/** B+Tree with OLC-style synchronization (no global lock). */
class BTreeWorkload : public WorkloadBase
{
  public:
    BTreeWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "btree"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

    /** Validate sorted order and balanced height. */
    bool selfCheck() const;
    std::uint64_t entries() const { return keyCount; }
    unsigned height() const;

  private:
    struct Node
    {
        bool leaf = true;
        Addr simAddr = 0;
        std::vector<std::uint64_t> keys;
        std::vector<std::uint64_t> values;   // leaves
        std::vector<int> children;           // inner nodes
    };

    int allocNode(bool leaf);
    void insert(std::uint64_t key, std::vector<MemRef> &out);
    /** Emit the reference stream of a point lookup. */
    void lookup(std::uint64_t key, std::vector<MemRef> &out) const;
    /** Split child c of parent node pi (refs emitted). */
    void splitChild(int pi, unsigned ci, std::vector<MemRef> &out);
    bool checkNode(int ni, std::uint64_t lo, std::uint64_t hi,
                   unsigned depth, unsigned leaf_depth) const;

    unsigned fanout;
    double lookupPct;
    int root;
    std::uint64_t keyCount = 0;
    std::vector<Node> nodes;
};

/** Adaptive Radix Tree (Node4/16/48/256 with growth). */
class ArtWorkload : public WorkloadBase
{
  public:
    ArtWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "art"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

    std::uint64_t entries() const { return keyCount; }
    bool contains(std::uint64_t key) const;

  private:
    enum class NodeType : std::uint8_t { N4, N16, N48, N256, Leaf };

    struct Node
    {
        NodeType type = NodeType::N4;
        Addr simAddr = 0;
        std::uint64_t leafKey = 0;           // Leaf only
        std::vector<std::uint8_t> keys;      // N4/N16
        std::array<std::int16_t, 256> index; // N48/N256 child index
        std::vector<int> children;

        Node() { index.fill(-1); }
    };

    static std::uint64_t nodeBytes(NodeType t);
    int allocNode(NodeType t);
    int findChild(const Node &n, std::uint8_t byte) const;
    /** Add a child, growing the node type if needed; emits refs.
     *  Returns the (possibly new) node index. */
    int addChild(int ni, std::uint8_t byte, int child,
                 std::vector<MemRef> &out);
    void insert(std::uint64_t key, std::vector<MemRef> &out);

    int root;
    std::uint64_t keyCount = 0;
    std::vector<Node> nodes;
};

/** Red-black tree (std::map shape), global lock. */
class RbTreeWorkload : public WorkloadBase
{
  public:
    RbTreeWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "rbtree"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

    std::uint64_t entries() const { return keyCount; }
    /** Validate RB invariants (root black, no red-red, equal black
     *  height). */
    bool selfCheck() const;

  private:
    struct Node
    {
        std::uint64_t key = 0;
        Addr simAddr = 0;
        int left = -1, right = -1, parent = -1;
        bool red = true;
    };

    int allocNode(std::uint64_t key);
    void rotateLeft(int x, std::vector<MemRef> &out);
    void rotateRight(int x, std::vector<MemRef> &out);
    void insert(std::uint64_t key, std::vector<MemRef> &out);
    int checkNode(int ni, std::uint64_t lo, std::uint64_t hi,
                  bool parent_red) const;

    int root = -1;
    std::uint64_t keyCount = 0;
    std::vector<Node> nodes;
    Addr lockAddr;
};

/** Grid path router: long read expansions + bursty path commits. */
class LabyrinthWorkload : public WorkloadBase
{
  public:
    LabyrinthWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "labyrinth"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

  private:
    Addr cellAddr(std::uint64_t x, std::uint64_t y) const;

    std::uint64_t width, height;
    Addr gridBase;
    Addr lockAddr;
};

/** Bayesian structure learning: ad-tree queries, rare graph edits. */
class BayesWorkload : public WorkloadBase
{
  public:
    BayesWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "bayes"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

  private:
    std::uint64_t adtreeBytes;
    std::uint64_t graphNodes;
    Addr adtreeBase, graphBase, lockAddr;
};

/** Delaunay refinement: cavity reads, triangle allocation writes. */
class YadaWorkload : public WorkloadBase
{
  public:
    YadaWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "yada"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

  private:
    struct Tri
    {
        Addr simAddr;
        std::array<std::uint32_t, 3> nbr;
        bool dead = false;
    };

    std::uint32_t allocTri(unsigned thread, Rng &r);

    std::vector<Tri> tris;
    Addr lockAddr;
};

/** Packet reassembly: stream reads + shared fragment-map inserts. */
class IntruderWorkload : public WorkloadBase
{
  public:
    IntruderWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "intruder"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

  private:
    SimHashSet fragments;
    std::uint64_t streamBytes, dictBytes;
    Addr streamBase, dictBase, lockAddr;
    std::vector<std::uint64_t> cursor;   ///< per-thread stream offset
};

/** Travel-reservation OLTP: multi-table read/update transactions. */
class VacationWorkload : public WorkloadBase
{
  public:
    VacationWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "vacation"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

  private:
    static constexpr unsigned numTables = 4;
    std::uint64_t rowsPerTable;
    std::array<Addr, numTables> tableBase;
    std::array<Addr, numTables> tableLock;
};

/** K-means: streaming point scans, membership writes, reductions. */
class KmeansWorkload : public WorkloadBase
{
  public:
    KmeansWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "kmeans"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

  private:
    std::uint64_t numPoints, numClusters, chunk;
    Addr pointsBase, membershipBase, centroidsBase, lockAddr;
    std::vector<Addr> accumBase;          ///< per-thread accumulators
    std::vector<std::uint64_t> cursor;    ///< per-thread point index
};

/** Gene sequencing: segment dedup phase then overlap matching. */
class GenomeWorkload : public WorkloadBase
{
  public:
    GenomeWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "genome"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

  private:
    SimHashSet segments;
    std::uint64_t segmentBytes;
    Addr segmentBase, resultBase, lockAddr;
    std::vector<std::uint64_t> matched;
};

/**
 * Multi-tenant KV service: N tenants, each with its own ASID-tagged
 * direct-addressed value region, zipfian get/put mixes, and
 * per-tenant skew/footprint variation. The front end for the tenant
 * subsystem (docs/MULTITENANCY.md): every reference a tenant emits is
 * tagged with its ASID, so isolation, quotas, and per-tenant
 * snapshots are exercised end to end.
 *
 * Tenant determinism contract: tenant A's operation stream is a pure
 * function of (wl.seed, A, per-tenant op index) — co-tenant count and
 * activity never perturb it. Tests rely on this to compare tenant A
 * solo vs. with B..N active.
 */
class KvServiceWorkload : public WorkloadBase
{
  public:
    KvServiceWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "kv_service"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

    unsigned tenants() const
    {
        return static_cast<unsigned>(perTenant.size());
    }

  private:
    struct Tenant
    {
        tenant::Asid asid;
        Addr base;                   ///< untagged region base
        std::uint64_t keys;          ///< footprint (keys)
        ZipfSampler zipf;            ///< key-rank sampler
        Rng rng;                     ///< tenant-private stream
        std::uint64_t ops = 0;
    };

    std::vector<Tenant> perTenant;   ///< active tenants, asid order
    std::vector<std::uint64_t> rr;   ///< per-thread round-robin cursor
    std::uint64_t valueBytes;
    std::uint64_t stride;            ///< line-rounded value slot size
    double getPct;
};

/** SSCA2 graph kernel: CSR neighbor scans, scattered writes. */
class Ssca2Workload : public WorkloadBase
{
  public:
    Ssca2Workload(const Params &params, const Config &cfg);
    const char *name() const override { return "ssca2"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

  private:
    std::uint64_t numNodes, avgDegree;
    std::vector<std::uint32_t> adjIndex;
    std::vector<std::uint32_t> adjList;
    Addr adjIndexBase, adjListBase, parentBase;
};

} // namespace nvo

#endif // NVO_WORKLOAD_WORKLOADS_HH
