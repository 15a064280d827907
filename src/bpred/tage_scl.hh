/**
 * @file
 * TAGE-SC-L: TAGE + Statistical Corrector + Loop predictor, configured
 * to an ~8 KB budget matching the paper's CBP-2016-derived baseline.
 *
 * The geometry is a compile-time constant, not a configuration: TAGE
 * has 6 tagged tables of 2^9 entries with 9-bit tags over history
 * lengths {4, 8, 17, 37, 77, 160} and a 2^11-entry bimodal base
 * (TagePredictor::k*); the statistical corrector has a 2^10-entry bias
 * table and three 2^9-entry GEHL tables over histories {4, 10, 25}
 * (StatisticalCorrector::k*); the loop predictor has 2^5 entries with
 * 10-bit tags and 12-bit trip counts (TageSclPredictor::Loop). Every
 * run of the simulator used this one geometry, so fixing it lets the
 * compiler turn the per-branch history folds into constant shifts and
 * every table mask into an immediate.
 */

#ifndef PBS_BPRED_TAGE_SCL_HH
#define PBS_BPRED_TAGE_SCL_HH

#include "bpred/loop.hh"
#include "bpred/sc.hh"
#include "bpred/tage.hh"

namespace pbs::bpred {

/**
 * The composed TAGE-SC-L predictor. Component priority:
 * loop (when confident) > statistical corrector override > TAGE.
 * Each branch looks every component up once; predict() keeps the
 * lookups for update().
 */
class TageSclPredictor final : public BranchPredictor
{
  public:
    /** 32 entries, 10-bit tags, 12-bit trip counts. */
    using Loop = LoopTable<5, 10, 12>;

    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken) override;
    bool predictAndUpdate(uint64_t pc, bool taken) override;
    size_t storageBits() const override;
    std::string name() const override { return "tage-sc-l"; }

  private:
    /** One branch's lookups in every component, and the prediction. */
    struct Lookup
    {
        TagePredictor::PredictContext tage;
        StatisticalCorrector::Lookup sc;
        Loop::Lookup loop;
        bool prediction;
    };

    void lookup(uint64_t pc, Lookup &l);
    void train(uint64_t pc, const Lookup &l, bool taken);

    TagePredictor tage_;
    StatisticalCorrector sc_;
    Loop loop_;
    Lookup last_{};  ///< predict()'s lookup, for update()
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_TAGE_SCL_HH
