// Fixture: CON-SIM-ADDR — host pointers reaching the cache model. The
// first five calls pass host pointers and must be reported; the rest
// charge simulated addresses (or are not access calls) and stay clean.
#include <memory>
#include <vector>

namespace uolap::engine {

void Charge(Core& core, SeqCursor& cur, std::vector<long>& v,
            std::unique_ptr<long[]>& p, const SimVector<long>& s) {
  core.Load(&v[3], 8);
  core.LoadSeq(v.data() + 4, 8, 16);
  core.memory().AccessData(reinterpret_cast<unsigned long>(p.get()), 8,
                           false);
  core.StoreRange(cur, p.get(), 8, 1);
  core.Store(&s[0], 8);
  core.Load(s.At(3), 8);
  core.LoadRange(cur, s.At(0), 8, s.size());
  core.Store(base + 8 * i, 8);
  Use(&v[0], v.data());
}

}  // namespace uolap::engine
