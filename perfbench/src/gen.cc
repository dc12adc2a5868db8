#include "gen.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <unordered_set>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

Cycle::Cycle(size_t n, size_t start) : order_(n), next_(start) {
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  Rng rng(0x6379636c65ull);
  rng.Shuffle(&order_);
}

size_t Cycle::Next() { return order_[next_++ % order_.size()]; }

namespace {

// Fixed-width names over a seeded permutation, so byte sizes do not move
// with the seed.
std::vector<std::string> ShuffledNames(const char* prefix, int n, Rng* rng) {
  std::vector<int> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  rng->Shuffle(&ids);
  std::vector<std::string> names(n);
  char buf[32];
  for (int i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%05d", prefix, ids[i]);
    names[i] = buf;
  }
  return names;
}

uint64_t PairKey(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

// Majority and joint-control stake ranges (in 64ths). Any two joint stakes
// sum to at most 30/64 and three to at least 33/64, so a star target is
// controlled exactly by whoever controls all three contributors.
constexpr int kMajorityLo = 33, kMajorityHi = 48;
constexpr int kJointLo = 11, kJointHi = 15;
// Cap on the summed noise stakes into one company: together with a single
// majority parent it keeps every company's total at or below 100% and no
// noise combination above 50%.
constexpr int kNoiseCap = 15;

// The exact decimal text of a double (shortest round-tripping form).
std::string ExactNumber(double value) {
  char buf[64];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed);
  std::string text(buf, res.ptr);
  if (text.find('.') == std::string::npos) text += ".0";
  return text;
}

}  // namespace

OwnershipKg DenseOwnershipNetwork(const DenseOptions& o, uint64_t seed) {
  Rng rng(seed);
  OwnershipKg kg;
  const int n = o.groups * o.group_length;
  kg.names = ShuffledNames("Co", n, &rng);
  std::vector<bool> star(n, false);
  std::unordered_set<uint64_t> edges;
  auto add = [&](int owner, int owned, int num) {
    kg.stakes.push_back({owner, owned, num});
    edges.insert(PairKey(owner, owned));
  };
  for (int g = 0; g < o.groups; ++g) {
    const int base = g * o.group_length;
    for (int i = 1; i < o.group_length; ++i) {
      const int e = base + i;
      if (i % 5 == 0 && i >= 3) {
        star[e] = true;
        for (int k = 1; k <= 3; ++k) {
          add(e - k, e, static_cast<int>(rng.Uniform(kJointLo, kJointHi)));
        }
      } else {
        add(e - 1, e, static_cast<int>(rng.Uniform(kMajorityLo, kMajorityHi)));
      }
    }
  }
  std::vector<int> noise_in(n, 0);
  for (int z = 0; z < n; ++z) {
    for (int k = 0; k < o.noise_out; ++k) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const int y = static_cast<int>(rng.Uniform(0, n - 1));
        if (y == z || star[y] || noise_in[y] + 1 > kNoiseCap ||
            edges.count(PairKey(z, y)) > 0) {
          continue;
        }
        add(z, y, 1);
        ++noise_in[y];
        break;
      }
    }
  }
  rng.Shuffle(&kg.stakes);
  return kg;
}

OwnershipKg GroupedNationalKg(const GroupedOptions& o, uint64_t seed) {
  Rng rng(seed ^ 0x6e6174696f6e616cull);
  OwnershipKg kg;
  const int n = o.groups * kGroupSize;
  kg.names = ShuffledNames("Co", n, &rng);
  std::unordered_set<uint64_t> edges;
  auto add = [&](int owner, int owned, int num) {
    kg.stakes.push_back({owner, owned, num});
    edges.insert(PairKey(owner, owned));
  };
  auto majority = [&] {
    return static_cast<int>(rng.Uniform(kMajorityLo, kMajorityHi));
  };
  for (int g = 0; g < o.groups; ++g) {
    const int b = g * kGroupSize;
    for (int i = 0; i < 7; ++i) add(b + i, b + i + 1, majority());  // chain
    for (int i = 8; i <= 10; ++i) add(b, b + i, majority());        // hub
    for (int i = 8; i <= 10; ++i) {                                  // star
      add(b + i, b + 11, static_cast<int>(rng.Uniform(kJointLo, kJointHi)));
    }
    add(b + 7, b + 12, majority());  // tail below the chain
    add(b + 12, b + 13, majority());
    add(b + 3, b + 14, static_cast<int>(rng.Uniform(5, 20)));  // minorities
    add(b + 12, b + 15, static_cast<int>(rng.Uniform(5, 20)));
  }
  std::vector<int> cross_in(n, 0);
  for (int g = 0; g < o.groups && o.groups > 1; ++g) {
    for (int k = 0; k < o.cross_stakes; ++k) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const int owner = g * kGroupSize + static_cast<int>(rng.Uniform(0, 15));
        const int h = static_cast<int>(rng.Uniform(0, o.groups - 1));
        const int local = static_cast<int>(rng.Uniform(0, 15));
        const int owned = h * kGroupSize + local;
        const int num = static_cast<int>(rng.Uniform(1, 8));
        if (h == g || local == 11 || cross_in[owned] + num > kNoiseCap ||
            edges.count(PairKey(owner, owned)) > 0) {
          continue;
        }
        add(owner, owned, num);
        cross_in[owned] += num;
        break;
      }
    }
  }
  rng.Shuffle(&kg.stakes);
  return kg;
}

DebtKg DebtNetwork(const DebtOptions& o, uint64_t seed) {
  Rng rng(seed ^ 0x64656274ull);
  DebtKg kg;
  const int n = o.institutions;
  kg.names = ShuffledNames("Bk", n, &rng);
  kg.capital.resize(n);
  for (int i = 0; i < n; ++i) kg.capital[i] = rng.Uniform(20, 40);
  // Roles are drawn from a shuffled pool: cascade trees first, then the
  // what-if pairs, the rest are bystanders.
  std::vector<int> pool(n);
  for (int i = 0; i < n; ++i) pool[i] = i;
  rng.Shuffle(&pool);
  size_t next = 0;
  std::vector<bool> cascade(n, false), candidate(n, false), sink(n, false);
  std::unordered_set<uint64_t> pairs;
  auto designed = [&](int debtor, int creditor, int mode) {
    pairs.insert(PairKey(debtor, creditor));
    const int64_t cap = kg.capital[creditor];
    if (mode == 0) {
      kg.debts.push_back({debtor, creditor, cap + rng.Uniform(1, 4), true});
    } else if (mode == 1) {
      kg.debts.push_back({debtor, creditor, cap + rng.Uniform(1, 4), false});
    } else {
      // Each channel alone stays within the capital; together they exceed
      // it, so the default needs both σ5 and σ6.
      kg.debts.push_back({debtor, creditor, cap / 2 + 1, true});
      kg.debts.push_back({debtor, creditor, cap - cap / 2 + 1, false});
    }
  };
  for (int r = 0; r < o.roots && next < pool.size(); ++r) {
    const int root = pool[next++];
    cascade[root] = true;
    kg.shocks.push_back({root, kg.capital[root] + rng.Uniform(1, 5)});
    std::vector<int> frontier = {root};
    for (int d = 0; d < o.depth; ++d) {
      std::vector<int> children;
      for (int parent : frontier) {
        for (int c = 0; c < o.branching && next < pool.size(); ++c) {
          const int child = pool[next++];
          cascade[child] = true;
          designed(parent, child, static_cast<int>(rng.Uniform(0, 2)));
          children.push_back(child);
        }
      }
      frontier = std::move(children);
    }
  }
  for (int k = 0; k < o.whatif_candidates && next + 1 < pool.size(); ++k) {
    const int first = pool[next++];
    const int second = pool[next++];
    candidate[first] = candidate[second] = true;
    sink[second] = true;
    designed(first, second, 2);
    kg.whatif_shocks.push_back({first, kg.capital[first] + rng.Uniform(1, 5)});
  }
  std::vector<int64_t> exposure(n, 0);
  for (int z = 0; z < n; ++z) {
    if (candidate[z]) continue;
    for (int k = 0; k < o.noise_out; ++k) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const int y = static_cast<int>(rng.Uniform(0, n - 1));
        const int64_t amount = rng.Uniform(1, 3);
        if (y == z || sink[y] || pairs.count(PairKey(z, y)) > 0) continue;
        // Bystanders can absorb every noise loan at once and stay solvent.
        if (!cascade[y] && exposure[y] + amount > kg.capital[y]) continue;
        kg.debts.push_back({z, y, amount, rng.Uniform(0, 1) == 0});
        exposure[y] += amount;
        pairs.insert(PairKey(z, y));
        break;
      }
    }
  }
  rng.Shuffle(&kg.debts);
  return kg;
}

OwnershipKg OwnershipDag(const DagOptions& o, uint64_t seed) {
  Rng rng(seed ^ 0x646167ull);
  OwnershipKg kg;
  kg.den = 1024;
  kg.company_facts = false;
  kg.names = ShuffledNames("Hd", o.layers * o.width, &rng);
  std::vector<int> targets(o.width);
  for (int layer = 0; layer + 1 < o.layers; ++layer) {
    for (int i = 0; i < o.width; ++i) {
      for (int j = 0; j < o.width; ++j) targets[j] = j;
      rng.Shuffle(&targets);
      for (int k = 0; k < o.out_degree && k < o.width; ++k) {
        kg.stakes.push_back({layer * o.width + i,
                             (layer + 1) * o.width + targets[k],
                             static_cast<int>(rng.Uniform(100, 400))});
      }
    }
  }
  rng.Shuffle(&kg.stakes);
  return kg;
}

std::string OwnershipCsv(const OwnershipKg& kg) {
  std::string out;
  if (kg.company_facts) {
    for (const std::string& name : kg.names) out += "Company," + name + "\n";
  }
  for (const Stake& s : kg.stakes) {
    out += "Own," + kg.names[s.owner] + "," + kg.names[s.owned] + "," +
           ExactNumber(ShareOf(kg, s)) + "\n";
  }
  return out;
}

std::string DebtCsv(const DebtKg& kg) {
  std::string out;
  for (size_t i = 0; i < kg.names.size(); ++i) {
    out += "HasCapital," + kg.names[i] + "," + std::to_string(kg.capital[i]) +
           "\n";
  }
  for (const auto& [who, amount] : kg.shocks) {
    out += "Shock," + kg.names[who] + "," + std::to_string(amount) + "\n";
  }
  for (const Debt& d : kg.debts) {
    out += std::string(d.long_term ? "LongTermDebts," : "ShortTermDebts,") +
           kg.names[d.debtor] + "," + kg.names[d.creditor] + "," +
           std::to_string(d.amount) + "\n";
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

}  // namespace perfbench
