// Seeded instance generator for the end-to-end benchmark.
//
// Four instance shapes, each built from a fixed skeleton so that the amount
// of reasoning work barely moves between seeds: the seed picks names,
// stake sizes, noise edges and what-if candidates, not the shape of the
// closure.
// Stakes are exact binary fractions, so every threshold comparison the
// rules make is exact and the independent references in reference.h agree
// with the engine bit for bit.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64: portable, so a seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  // Uniform in [lo, hi], both inclusive.
  int64_t Uniform(int64_t lo, int64_t hi);
  template <class T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(Uniform(0, i - 1))]);
    }
  }

 private:
  uint64_t state_;
};

// Walks a pool of `n` entries in one fixed shuffled order, round after
// round (`start` picks the first entry), so a run samples its pool evenly
// and every seed samples it alike.
class Cycle {
 public:
  explicit Cycle(size_t n, size_t start = 0);
  size_t Next();

 private:
  std::vector<size_t> order_;
  size_t next_;
};

// Own(owner, owned, num / den).
struct Stake {
  int owner = 0;
  int owned = 0;
  int num = 0;
};

struct OwnershipKg {
  int den = 64;
  std::vector<std::string> names;
  std::vector<Stake> stakes;
  bool company_facts = true;  // emit Company(x) for every entity
};

struct Debt {
  int debtor = 0;
  int creditor = 0;
  int64_t amount = 0;
  bool long_term = true;
};

struct DebtKg {
  std::vector<std::string> names;
  std::vector<int64_t> capital;
  std::vector<std::pair<int, int64_t>> shocks;  // baseline Shock facts
  std::vector<Debt> debts;
  // Latent what-if scenarios: shocking `first` by `second` defaults it and
  // exactly one creditor that no baseline default touches.
  std::vector<std::pair<int, int64_t>> whatif_shocks;
};

// ---- Shapes -----------------------------------------------------------------

// Dense ownership network: `groups` majority spines of `group_length`
// companies; every fifth spine company is instead jointly controlled by its
// three predecessors (the σ3 aggregation), and every company holds a 1/64
// stake in `noise_out` random others. Control closure ≈ groups ×
// group_length² / 2.
struct DenseOptions {
  int groups = 3;
  int group_length = 50;
  int noise_out = 6;
};
OwnershipKg DenseOwnershipNetwork(const DenseOptions& o, uint64_t seed);

// Grouped national KG: `groups` corporate groups of 16 companies each with
// an embedded majority chain, a joint-control star and minority stakes,
// plus `cross_stakes` sparse minority stakes per group into other groups.
// 65 Control facts and 36 EDB facts per group.
struct GroupedOptions {
  int groups = 400;
  int cross_stakes = 3;
};
inline constexpr int kGroupSize = 16;
OwnershipKg GroupedNationalKg(const GroupedOptions& o, uint64_t seed);

// Debt network: `roots` shocked institutions each head a cascade tree of
// the given depth and branching; every other institution lends small
// amounts to `noise_out` random creditors that can never sink them.
struct DebtOptions {
  int institutions = 1500;
  int roots = 15;
  int depth = 4;
  int branching = 2;
  int noise_out = 3;
  int whatif_candidates = 8;
};
DebtKg DebtNetwork(const DebtOptions& o, uint64_t seed);

// Layered ownership DAG for close links: `layers` × `width` companies, each
// owning a stake (num / 1024) in `out_degree` companies of the next layer.
struct DagOptions {
  int layers = 5;
  int width = 12;
  int out_degree = 3;
};
OwnershipKg OwnershipDag(const DagOptions& o, uint64_t seed);

// ---- Output -----------------------------------------------------------------

// CSV in the io/csv.h format (predicate first, strings bare, numbers exact).
std::string OwnershipCsv(const OwnershipKg& kg);
std::string DebtCsv(const DebtKg& kg);
// Stake as the double the CSV carries.
inline double ShareOf(const OwnershipKg& kg, const Stake& s) {
  return static_cast<double>(s.num) / kg.den;
}
// Writes `content` to `path`; false on I/O failure.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
