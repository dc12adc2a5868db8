#include "reference.h"

#include <algorithm>
#include <map>
#include <set>

namespace perfbench {

std::vector<std::vector<int>> ControlSets(const OwnershipKg& kg,
                                          const std::vector<Stake>& extra) {
  const int n = static_cast<int>(kg.names.size());
  std::vector<std::vector<Stake>> out(n);
  for (const Stake& s : kg.stakes) out[s.owner].push_back(s);
  for (const Stake& s : extra) out[s.owner].push_back(s);
  std::vector<std::vector<int>> sets(n);
  std::vector<int> acc(n, 0);
  std::vector<char> in(n, 0);
  std::vector<int> touched;
  for (int x = 0; x < n; ++x) {
    std::vector<int>& controlled = sets[x];
    auto control = [&](int y) {
      if (!in[y]) {
        in[y] = 1;
        controlled.push_back(y);
      }
    };
    if (kg.company_facts) control(x);                     // σ2
    for (const Stake& s : out[x]) {                        // σ1
      if (2 * s.num > kg.den) control(s.owned);
    }
    // σ3: y joins once the stakes held by x's controlled set exceed half.
    for (size_t i = 0; i < controlled.size(); ++i) {
      for (const Stake& s : out[controlled[i]]) {
        if (acc[s.owned] == 0) touched.push_back(s.owned);
        acc[s.owned] += s.num;
        if (2 * acc[s.owned] > kg.den) control(s.owned);
      }
    }
    for (int y : touched) acc[y] = 0;
    touched.clear();
    for (int y : controlled) in[y] = 0;
    std::sort(controlled.begin(), controlled.end());
  }
  return sets;
}

std::vector<bool> Defaults(const DebtKg& kg,
                           const std::vector<std::pair<int, int64_t>>& extra) {
  const int n = static_cast<int>(kg.names.size());
  std::vector<std::vector<const Debt*>> lent(n);
  for (const Debt& d : kg.debts) lent[d.debtor].push_back(&d);
  std::vector<bool> defaulted(n, false);
  std::vector<int64_t> exposure(n, 0);
  std::vector<int> queue;
  auto fail = [&](int who) {
    if (!defaulted[who]) {
      defaulted[who] = true;
      queue.push_back(who);
    }
  };
  for (const auto& [who, amount] : kg.shocks) {
    if (amount > kg.capital[who]) fail(who);               // σ4
  }
  for (const auto& [who, amount] : extra) {
    if (amount > kg.capital[who]) fail(who);
  }
  // σ5–σ7: a creditor defaults once both channels together exceed capital.
  for (size_t i = 0; i < queue.size(); ++i) {
    for (const Debt* d : lent[queue[i]]) {
      exposure[d->creditor] += d->amount;
      if (exposure[d->creditor] > kg.capital[d->creditor]) fail(d->creditor);
    }
  }
  return defaulted;
}

CloseLinkReference CloseLinks(const OwnershipKg& kg) {
  const int n = static_cast<int>(kg.names.size());
  std::vector<std::vector<const Stake*>> out(n);
  for (const Stake& s : kg.stakes) out[s.owner].push_back(&s);
  CloseLinkReference ref;
  for (int x = 0; x < n; ++x) {
    // κ1/κ2: every path product, multiplied left to right as the chase does;
    // equal products along different paths are one fact.
    std::map<int, std::set<double>> products;
    std::vector<std::pair<int, double>> stack;
    for (const Stake* s : out[x]) stack.push_back({s->owned, ShareOf(kg, *s)});
    while (!stack.empty()) {
      const auto [y, p] = stack.back();
      stack.pop_back();
      products[y].insert(p);
      for (const Stake* s : out[y]) {
        stack.push_back({s->owned, p * ShareOf(kg, *s)});
      }
    }
    for (const auto& [y, values] : products) {
      ref.int_own_facts += static_cast<int64_t>(values.size());
      double total = 0;
      for (double v : values) total += v;
      if (total >= 0.2) ref.close_links.push_back({x, y});  // κ3
    }
  }
  return ref;
}

}  // namespace perfbench
