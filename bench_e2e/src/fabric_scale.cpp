/**
 * @file
 * `fabric_scale`: large-fabric mapping. One pass maps all 21 kernels x
 * unroll {1, 2} with the ICED and the conventional mapper at 16x16 and
 * 24x24 (2x2 islands), one `Mapper::tryMap` at a time in a seeded
 * order, and evaluates each ICED mapping's power. Before each ICED map
 * it runs the Algorithm 1 labeling at the start II from outside, so
 * the labeling layer is measured on the largest graphs. No cache,
 * codec, wire or simulator is involved.
 */
#include <optional>

#include "checks.hpp"
#include "kernels/registry.hpp"
#include "mapper/labeling.hpp"
#include "mapper/mapper.hpp"
#include "power/report.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace iced;

struct Cell
{
    std::string name;
    std::size_t dfg = 0;    ///< index into the graph list
    std::size_t fabric = 0; ///< index into the fabric list
    int startIi = 0;
};

class FabricScale final : public Workload
{
  public:
    explicit FabricScale(const RunConfig &config) : cfg(config) {}

    void setUp() override
    {
        fabrics.clear();
        mappers.clear();
        for (int size : {16, 24}) {
            CgraConfig c;
            c.rows = size;
            c.cols = size;
            fabrics.push_back(std::make_unique<Cgra>(c));
            mappers.push_back({Mapper(*fabrics.back()),
                               Mapper(*fabrics.back(),
                                      conventionalOptions())});
        }
        dfgs.clear();
        cells.clear();
        for (const Kernel &k : kernelRegistry()) {
            for (int uf : {1, 2}) {
                {
                    Layers::Span s("kernels.build");
                    dfgs.push_back(k.build(uf));
                }
                for (std::size_t f = 0; f < fabrics.size(); ++f) {
                    Cell cell;
                    cell.name = k.name + " x" + std::to_string(uf) + " " +
                                fabrics[f]->describe();
                    cell.dfg = dfgs.size() - 1;
                    cell.fabric = f;
                    Layers::Span s("dfg.recmii");
                    cell.startIi =
                        mappers[f].iced.startIi(dfgs.back());
                    cells.push_back(std::move(cell));
                }
            }
        }
        // Seeded order of the (cell, mapper) maps.
        order.clear();
        for (std::size_t c = 0; c < cells.size(); ++c)
            for (bool iced : {true, false})
                order.push_back({c, iced});
        seededShuffle(order, cfg.seed);
    }

    int samplesPerPass() const override
    {
        return static_cast<int>(order.size());
    }

    void runPass(PassRecord &rec, Tally &tally) override
    {
        std::vector<std::optional<Mapping>> iced(cells.size());
        std::vector<std::optional<Mapping>> conv(cells.size());
        for (const auto &[c, isIced] : order) {
            const Cell &cell = cells[c];
            const Dfg &dfg = dfgs[cell.dfg];
            const Pair &pair = mappers[cell.fabric];
            if (isIced) {
                Timed wall(rec.wallMs);
                Layers::Span s("mapper.labeling");
                labelDvfsLevels(dfg, *fabrics[cell.fabric], cell.startIi);
            }
            const auto start = Clock::now();
            std::optional<Mapping> m;
            {
                Layers::Span s(isIced ? "mapper.map_iced"
                                      : "mapper.map_conv");
                m = (isIced ? pair.iced : pair.conv).tryMap(dfg);
            }
            const double ms = msSince(start);
            rec.wallMs += ms;
            rec.coldMs += ms;
            rec.mapMs.add(ms);
            rec.latency[isIced ? "mapper.map_iced_ms" : "mapper.map_conv_ms"]
                .add(ms);
            tally.record("cells", m.has_value(),
                         cell.name + " did not map");
            if (isIced && m) {
                Timed wall(rec.wallMs);
                Layers::Span s("power.evaluate");
                rec.powerSum += evaluateIced(*m, model).power.totalMw;
                rec.iiSum += m->ii();
                ++rec.icedMappings;
            }
            (isIced ? iced : conv)[c] = std::move(m);
        }
        rec.coldCells = static_cast<int>(order.size());

        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (!iced[c] || !conv[c])
                continue;
            tally.check(checkMappingViolations(*iced[c]), cells[c].name);
            tally.check(checkMappingViolations(*conv[c]), cells[c].name);
            tally.check(checkIiLadder(iced[c]->ii(), conv[c]->ii(),
                                      cells[c].startIi),
                        cells[c].name);
        }
    }

  private:
    struct Pair
    {
        Mapper iced;
        Mapper conv;
    };

    RunConfig cfg;
    PowerModel model;
    std::vector<std::unique_ptr<Cgra>> fabrics;
    std::vector<Pair> mappers;
    std::vector<Dfg> dfgs;
    std::vector<Cell> cells;
    std::vector<std::pair<std::size_t, bool>> order;
};

} // namespace

std::unique_ptr<Workload>
makeFabricScale(const RunConfig &config)
{
    return std::make_unique<FabricScale>(config);
}

} // namespace e2e
