/**
 * @file
 * `dse_service`: the `design_space_explorer` grid (the ten single
 * kernels x its seven fabric/island geometries) served by an
 * in-process `MappingServer` over TCP loopback, with a persistent
 * store, to one client connection. One pass, on an empty store:
 *
 *  1. cold: one `ServiceClient::map` per cell (computed, written to
 *     the store), then the explorer's report: decode every reply and
 *     evaluate its power;
 *  2. a `ping`, then warm: the same cells from the memory tier;
 *  3. a restart on the same store, then the cells from the persistent
 *     tier;
 *  4. batch sweeps through a one-backend `ShardedClient`: one from the
 *     memory tier, then after another restart one from the persistent
 *     tier.
 *
 * The checks then compare every reply with an in-process `tryMap` of
 * the same cell, and read the store back through its own API. They run
 * in `checkPass`, so their maps and store calls stay out of the pass's
 * counter deltas.
 */
#include <filesystem>
#include <optional>
#include <tuple>

#include "checks.hpp"
#include "common/logging.hpp"
#include "exec/codec.hpp"
#include "exec/fingerprint.hpp"
#include "exec/persistent_store.hpp"
#include "kernels/registry.hpp"
#include "mapper/mapper.hpp"
#include "power/report.hpp"
#include "service/server.hpp"
#include "service/sharded_client.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace iced;
namespace fs = std::filesystem;

/** The replies of one pass, kept for its checks. */
struct Replies
{
    std::vector<MapReplyMsg> cold, warm, disk, sweepMemory, sweepDisk;
    std::vector<std::shared_ptr<const MappingEntry>> decoded;
    PingReplyMsg pong;
};

struct Cell
{
    std::string name;
    std::size_t fabric = 0;
    RequestCell request;
    int startIi = 0;
    /** In-process mappings of the same cell, remade every pass. */
    std::optional<Mapping> iced;
    std::optional<Mapping> conv;
};

class DseService final : public Workload
{
  public:
    explicit DseService(const RunConfig &config)
        : cfg(config), storeDir(config.outDir + "/store"),
          copyDir(config.outDir + "/store-copy")
    {
    }

    ~DseService() override { tearDown(); }

    void setUp() override
    {
        tearDown();
        fabrics.clear();
        for (int size : {4, 6, 8}) {
            for (int island : {1, 2, 3}) {
                if (size % island != 0)
                    continue;
                CgraConfig c;
                c.rows = c.cols = size;
                c.islandRows = c.islandCols = island;
                fabrics.push_back(std::make_unique<Cgra>(c));
            }
        }
        cells.clear();
        for (const Kernel *k : singleKernels()) {
            Dfg dfg;
            {
                Layers::Span s("kernels.build");
                dfg = k->build(1);
            }
            for (std::size_t f = 0; f < fabrics.size(); ++f) {
                Cell &cell = cells.emplace_back();
                cell.name = k->name + " " + fabrics[f]->describe();
                cell.fabric = f;
                cell.request.config = fabrics[f]->config();
                cell.request.dfg = dfg;
                Layers::Span s("dfg.recmii");
                cell.startIi =
                    Mapper(*fabrics[f]).startIi(cell.request.dfg);
            }
        }
        seededShuffle(cells, cfg.seed);
        fs::remove_all(storeDir);
        startServer();
        connect();
        freshStore = true;
    }

    void tearDown() override
    {
        stopServer();
        fs::remove_all(storeDir);
        fs::remove_all(copyDir);
    }

    int samplesPerPass() const override
    {
        return static_cast<int>(cells.size());
    }

    void runPass(PassRecord &rec, Tally &tally) override
    {
        if (!freshStore) {
            stopServer();
            fs::remove_all(storeDir);
            startServer();
            connect();
        }
        freshStore = false;
        const std::size_t n = cells.size();

        last = Replies{};
        std::vector<MapReplyMsg> &cold = last.cold;
        std::vector<std::shared_ptr<const MappingEntry>> &decoded =
            last.decoded;
        cold = mapAll(rec, tally, "computed_ms");
        rec.mapMs.append(rec.latency["computed_ms"]);
        rec.coldCells = static_cast<int>(n);
        rec.coldMs = rec.wallMs;

        decoded.resize(n);
        {
            Timed wall(rec.wallMs);
            for (std::size_t i = 0; i < n; ++i) {
                {
                    Layers::Span s("exec.codec.decode");
                    decoded[i] = decodeReplyEntry(cold[i]);
                }
                if (!decoded[i] || !decoded[i]->mapped())
                    continue;
                Layers::Span s("power.evaluate");
                rec.powerSum +=
                    evaluateIced(*decoded[i]->mapping, model).power.totalMw;
                rec.iiSum += decoded[i]->mapping->ii();
                ++rec.icedMappings;
            }
        }

        {
            const auto start = Clock::now();
            {
                Layers::Span s("service.ping");
                last.pong =
                    request(tally, "ping", [&] { return client->ping(); });
            }
            const double ms = msSince(start);
            rec.wallMs += ms;
            rec.latency["ping_ms"].add(ms);
        }

        last.warm = mapAll(rec, tally, "memory_ms");
        {
            Timed wall(rec.wallMs);
            stopServer();
            startServer();
            connect();
        }
        last.disk = mapAll(rec, tally, "persistent_ms");

        double sweepMs = 0.0;
        {
            Timed wall(rec.wallMs);
            Timed sweep(sweepMs);
            last.sweepMemory = sweepAll(tally);
        }
        {
            Timed wall(rec.wallMs);
            stopServer();
            startServer();
        }
        {
            Timed wall(rec.wallMs);
            Timed sweep(sweepMs);
            last.sweepDisk = sweepAll(tally);
        }
        rec.values["service.sweep_cells_per_s"] =
            2.0 * static_cast<double>(n) / (sweepMs / 1000.0);
    }

    void checkPass(PassRecord &rec, Tally &tally) override
    {
        const std::size_t n = cells.size();
        const std::vector<MapReplyMsg> &cold = last.cold;
        checkReplies(cold, last.decoded, rec, tally);
        tally.check(last.pong.storeEntries == n
                        ? ""
                        : "ping reports " +
                              std::to_string(last.pong.storeEntries) +
                              " store entries",
                    "store after the cold phase");
        const std::pair<const std::vector<MapReplyMsg> *, CacheSource>
            repeats[] = {{&last.warm, CacheSource::Memory},
                         {&last.disk, CacheSource::Persistent},
                         {&last.sweepMemory, CacheSource::Memory},
                         {&last.sweepDisk, CacheSource::Persistent}};
        for (const auto &[replies, tier] : repeats) {
            for (std::size_t i = 0; i < n; ++i) {
                if (i >= replies->size()) {
                    tally.check("no reply", cells[i].name);
                    continue;
                }
                const MapReplyMsg &r = (*replies)[i];
                tally.check(checkReply(r, tier), cells[i].name);
                tally.check(r.entryBlob == cold[i].entryBlob
                                ? ""
                                : "entry differs from the cold reply",
                            cells[i].name + " " + toString(tier));
            }
        }
        checkStore(tally);
    }

  private:
    void startServer()
    {
        ServerOptions o;
        o.listenAddress = "127.0.0.1:0";
        o.storeDir = storeDir;
        o.threads = cfg.threads;
        Layers::Span s("service.server_start");
        server = std::make_unique<MappingServer>(o);
        server->start();
    }

    void connect()
    {
        client = std::make_unique<ServiceClient>(server->boundAddress());
    }

    void stopServer()
    {
        client.reset();
        server.reset();
    }

    /** Run one request, counting it; a throw is a failed request. */
    template <typename Fn>
    auto request(Tally &tally, const std::string &what, Fn &&fn)
        -> decltype(fn())
    {
        try {
            auto reply = fn();
            tally.record("requests", true, what);
            return reply;
        } catch (const FatalError &err) {
            tally.record("requests", false, what + ": " + err.what());
            return {};
        }
    }

    /** One `map` request per cell, each round trip timed. */
    std::vector<MapReplyMsg> mapAll(PassRecord &rec, Tally &tally,
                                    const std::string &tier)
    {
        std::vector<MapReplyMsg> replies(cells.size());
        Samples &lat = rec.latency[tier];
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto start = Clock::now();
            replies[i] = request(tally, cells[i].name, [&] {
                return client->map(cells[i].request);
            });
            const double ms = msSince(start);
            rec.wallMs += ms;
            lat.add(ms);
        }
        return replies;
    }

    std::vector<MapReplyMsg> sweepAll(Tally &tally)
    {
        std::vector<RequestCell> batch;
        for (const Cell &c : cells)
            batch.push_back(c.request);
        return request(tally, "sweep", [&] {
            ShardedClient sharded({server->boundAddress()});
            return sharded.sweep(batch);
        });
    }

    /** Map cell `i` in process, ICED and conventional, timing both. */
    void mapInProcess(std::size_t i, PassRecord &rec)
    {
        Cell &c = cells[i];
        const Mapper iced(*fabrics[c.fabric]);
        const Mapper conv(*fabrics[c.fabric], conventionalOptions());
        const std::tuple<const char *, const Mapper *,
                         std::optional<Mapping> *>
            variants[] = {{"mapper.map_iced", &iced, &c.iced},
                          {"mapper.map_conv", &conv, &c.conv}};
        for (const auto &[layer, mapper, out] : variants) {
            const auto start = Clock::now();
            {
                Layers::Span s(layer);
                *out = mapper->tryMap(c.request.dfg);
            }
            rec.latency[std::string(layer) + "_ms"].add(msSince(start));
        }
    }

    void checkReplies(
        const std::vector<MapReplyMsg> &cold,
        const std::vector<std::shared_ptr<const MappingEntry>> &decoded,
        PassRecord &rec, Tally &tally)
    {
        double bytes = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            mapInProcess(i, rec);
            tally.check(checkReply(cold[i], CacheSource::Computed), c.name);
            if (!decoded[i] || !decoded[i]->mapped()) {
                tally.check("reply carries no mapping", c.name);
                continue;
            }
            const Mapping &served = *decoded[i]->mapping;
            if (!c.iced || !c.conv) {
                tally.check("in-process tryMap found no mapping", c.name);
                continue;
            }
            tally.check(checkSameMapping(served, *c.iced), c.name);
            tally.check(checkMappingViolations(served), c.name);
            tally.check(checkIiLadder(served.ii(), c.conv->ii(), c.startIi),
                        c.name);
            std::string blob;
            {
                Layers::Span s("exec.codec.encode");
                blob = encodeMappingEntry(*decoded[i]);
            }
            tally.check(blob == cold[i].entryBlob
                            ? ""
                            : "re-encoding changed the entry",
                        c.name);
            bytes += static_cast<double>(blob.size());
        }
        rec.values["exec.codec.entry_bytes"] =
            bytes / static_cast<double>(cells.size());
    }

    /**
     * Read every entry back through the store's own API, and write it
     * to a second store and read it again: the write path beside the
     * read path the server uses.
     */
    void checkStore(Tally &tally)
    {
        fs::remove_all(copyDir);
        std::optional<PersistentMappingStore> store, copy;
        {
            Layers::Span s("exec.store.open");
            store.emplace(PersistentStoreOptions{storeDir, false});
        }
        {
            Layers::Span s("exec.store.open");
            copy.emplace(PersistentStoreOptions{copyDir, false});
        }
        for (const Cell &c : cells) {
            const RequestCell &r = c.request;
            const Digest key =
                fingerprintMappingRequest(r.dfg, r.config, r.options);
            std::shared_ptr<const MappingEntry> entry, again;
            {
                Layers::Span s("exec.store.fetch");
                entry = store->fetch(key);
            }
            if (!entry || !entry->mapped() || !c.iced) {
                tally.check("store has no mapping", c.name);
                continue;
            }
            tally.check(checkSameMapping(*entry->mapping, *c.iced),
                        c.name + " stored");
            {
                Layers::Span s("exec.store.store");
                copy->store(key, entry);
            }
            {
                Layers::Span s("exec.store.fetch");
                again = copy->fetch(key);
            }
            tally.check(again && again->mapped()
                            ? checkSameMapping(*again->mapping, *c.iced)
                            : "copied store has no mapping",
                        c.name + " copied");
        }
    }

    RunConfig cfg;
    std::string storeDir;
    std::string copyDir;
    PowerModel model;
    std::vector<std::unique_ptr<Cgra>> fabrics;
    std::vector<Cell> cells;
    Replies last;
    std::unique_ptr<MappingServer> server;
    std::unique_ptr<ServiceClient> client;
    bool freshStore = false;
};

} // namespace

std::unique_ptr<Workload>
makeDseService(const RunConfig &config)
{
    return std::make_unique<DseService>(config);
}

} // namespace e2e
