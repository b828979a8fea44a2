#include "mapred/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/arena.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"

namespace datanet::mapred {

std::vector<std::string_view> split_at_record_boundaries(std::string_view data,
                                                         std::uint32_t pieces) {
  std::vector<std::string_view> chunks;
  if (data.empty()) return chunks;
  if (pieces == 0) pieces = 1;
  const std::uint64_t chunk = std::max<std::uint64_t>(data.size() / pieces, 1);
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = std::min<std::size_t>(start + chunk, data.size());
    if (end < data.size()) {
      const std::size_t nl = data.find('\n', end);
      end = (nl == std::string_view::npos) ? data.size() : nl + 1;
    }
    chunks.push_back(data.substr(start, end - start));
    start = end;
  }
  return chunks;
}

std::uint64_t apply_speculative_backups(
    std::vector<TaskTiming>& map_tasks, std::vector<double>& node_map_seconds,
    const std::function<double(std::size_t task, std::uint32_t node)>&
        backup_duration) {
  const std::size_t num_tasks = map_tasks.size();
  const auto num_nodes = static_cast<std::uint32_t>(node_map_seconds.size());
  if (num_tasks == 0 || num_nodes < 2) return 0;

  // Speculative execution: while one node finishes well after the rest, its
  // last-running task gets a backup on the earliest idle node and the
  // earlier copy wins. Iterated until no backup would finish earlier —
  // Hadoop keeps speculating as slots free up. (Results are unaffected;
  // only the simulated clock moves.)
  // Per-node "owner" of each task for recomputing node finish times.
  std::vector<std::uint32_t> owner(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) owner[t] = map_tasks[t].node;

  std::uint64_t backups = 0;
  const std::size_t max_waves = 4 * num_tasks;
  for (std::size_t wave = 0; wave < max_waves; ++wave) {
    const auto straggler = static_cast<std::uint32_t>(
        std::max_element(node_map_seconds.begin(), node_map_seconds.end()) -
        node_map_seconds.begin());
    std::uint32_t backup_node = straggler;
    double earliest_idle = node_map_seconds[straggler];
    for (std::uint32_t n = 0; n < num_nodes; ++n) {
      if (n == straggler) continue;
      if (node_map_seconds[n] < earliest_idle) {
        earliest_idle = node_map_seconds[n];
        backup_node = n;
      }
    }
    if (backup_node == straggler) break;

    // The straggler's last-finishing task.
    std::size_t tail = num_tasks;
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (owner[t] != straggler) continue;
      if (tail == num_tasks ||
          map_tasks[t].finish > map_tasks[tail].finish) {
        tail = t;
      }
    }
    if (tail == num_tasks) break;

    const double launch = std::max(earliest_idle, map_tasks[tail].start);
    const double backup_finish = launch + backup_duration(tail, backup_node);
    if (backup_finish >= map_tasks[tail].finish) break;  // no gain left

    map_tasks[tail].finish = backup_finish;
    map_tasks[tail].node = backup_node;
    owner[tail] = backup_node;
    ++backups;
    node_map_seconds[backup_node] =
        std::max(node_map_seconds[backup_node], backup_finish);
    double node_finish = 0.0;
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (owner[t] == straggler) {
        node_finish = std::max(node_finish, map_tasks[t].finish);
      }
    }
    node_map_seconds[straggler] = node_finish;
  }
  return backups;
}

namespace {

// Seed of the shuffle partitioner; also seeds the cached grouping hash so
// one hash per pair serves both partitioning and grouping.
constexpr std::uint64_t kPartitionSeed = 0x9e3779b9;

// The flat counter list lives on Emitter (the base count() bumps it without
// a virtual dispatch); the std::map materializes only when the engine
// merges tasks into the report.
using CounterList = Emitter::CounterList;

// Collects emitted pairs in order into the task's arena; partitions lazily
// afterwards. Wires the base-class counter sink to its own list.
class VectorEmitter final : public Emitter {
 public:
  explicit VectorEmitter(common::Arena& arena)
      : pairs_(common::ArenaAllocator<std::pair<Key, Value>>(arena)) {
    counters_ = &counter_list_;
  }
  void emit(Key key, Value value) override {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  [[nodiscard]] common::ArenaVector<std::pair<Key, Value>>& pairs() {
    return pairs_;
  }
  [[nodiscard]] CounterList& counters() { return counter_list_; }

 private:
  common::ArenaVector<std::pair<Key, Value>> pairs_;
  CounterList counter_list_;
};

// A map-output pair with its partition hash computed once and carried along
// so grouping and partitioning never rehash (or re-compare) the full key.
struct HashedPair {
  std::uint64_t hash = 0;
  Key key;
  Value value;
};

template <class PairVec>
common::ArenaVector<HashedPair> hash_pairs(PairVec pairs,
                                           common::Arena& arena) {
  common::ArenaVector<HashedPair> out{
      common::ArenaAllocator<HashedPair>(arena)};
  out.reserve(pairs.size());
  for (auto& [key, value] : pairs) {
    const std::uint64_t h = common::hash_bytes(key, kPartitionSeed);
    out.push_back(HashedPair{h, std::move(key), std::move(value)});
  }
  return out;
}

// Group pairs by key, then apply a reducer. An open-addressing table indexed
// by the cached hash's high bits (its low bits chose the partition) numbers
// the keys in first-seen order, comparing strings only on a full hash match;
// a stable counting pass then lays each key's values out contiguously in
// arrival order (task-then-emit for a reducer). Counter emissions are merged
// into `counters` when provided. Output lives in `arena`.
template <class HashedVec>
common::ArenaVector<std::pair<Key, Value>> reduce_pairs(
    Reducer& reducer, HashedVec pairs, common::Arena& arena,
    CounterList* counters = nullptr) {
  const std::size_t n = pairs.size();
  std::vector<std::size_t> first;  // each group's first pair
  std::vector<std::size_t> group_of(n);
  std::vector<std::size_t> table(std::bit_ceil(2 * n + 1), 0);  // group + 1
  const int shift = 64 - std::countr_zero(table.size());
  for (std::size_t i = 0; i < n; ++i) {
    const HashedPair& hp = pairs[i];
    auto at = static_cast<std::size_t>(hp.hash >> shift);
    for (; table[at] != 0; at = (at + 1) & (table.size() - 1)) {
      const HashedPair& head = pairs[first[table[at] - 1]];
      if (head.hash == hp.hash && head.key == hp.key) break;
    }
    if (table[at] == 0) {
      first.push_back(i);
      table[at] = first.size();
    }
    group_of[i] = table[at] - 1;
  }
  std::vector<std::size_t> offset(first.size() + 1, 0);
  for (const std::size_t g : group_of) ++offset[g + 1];
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<Value> values(n);
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    values[fill[group_of[i]]++] = std::move(pairs[i].value);
  }
  VectorEmitter out(arena);
  for (std::size_t g = 0; g < first.size(); ++g) {
    reducer.reduce(pairs[first[g]].key,
                   {values.data() + offset[g], values.data() + offset[g + 1]},
                   out);
  }
  if (counters) {
    for (auto& [name, v] : out.counters()) {
      bool found = false;
      for (auto& [cname, total] : *counters) {
        if (cname == name) {
          total += v;
          found = true;
          break;
        }
      }
      if (!found) counters->emplace_back(std::move(name), v);
    }
  }
  return std::move(out.pairs());
}

struct TaskResult {
  // The task's scratch arena backs `partitions` and everything that fed it;
  // declared first so the vectors die before their memory does.
  std::unique_ptr<common::Arena> arena;
  // Post-combiner map output, already split into one vector per reducer
  // (index = hash % R) — the serial global partition loop is gone.
  std::vector<common::ArenaVector<HashedPair>> partitions;
  std::vector<std::uint64_t> partition_bytes;  // per reducer, this task only
  std::uint64_t pair_count = 0;
  CounterList counters;
  std::uint64_t records = 0;
  std::uint64_t skipped = 0;
};

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  if (options_.num_nodes == 0) throw std::invalid_argument("num_nodes == 0");
  if (options_.slots_per_node == 0) {
    throw std::invalid_argument("slots_per_node == 0");
  }
  if (!options_.node_speed.empty()) {
    if (options_.node_speed.size() != options_.num_nodes) {
      throw std::invalid_argument("node_speed size != num_nodes");
    }
    for (const double s : options_.node_speed) {
      if (!(s > 0.0)) throw std::invalid_argument("node_speed must be > 0");
    }
  }
}

JobReport Engine::run(const Job& job, const std::vector<InputSplit>& splits) const {
  if (!job.mapper_factory || !job.reducer_factory) {
    throw std::invalid_argument("job needs mapper and reducer factories");
  }
  if (job.config.num_reducers == 0) {
    throw std::invalid_argument("num_reducers == 0");
  }
  for (const auto& s : splits) {
    if (s.node >= options_.num_nodes) {
      throw std::invalid_argument("split placed on nonexistent node");
    }
  }

  JobReport report;
  const std::uint32_t R = job.config.num_reducers;

  // One pool serves the whole run: map tasks, partition gathering, and the
  // per-partition reduce stage all share it.
  const std::uint32_t threads =
      options_.execution_threads
          ? options_.execution_threads
          : std::max(1u, std::thread::hardware_concurrency());
  common::ThreadPool pool(threads);
  const auto wall_now = [] { return std::chrono::steady_clock::now(); };
  const auto wall_since = [](std::chrono::steady_clock::time_point t0,
                             std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
  };

  // ---- Real map execution (parallel, order-independent results). ----
  // Each task emits R pre-partitioned vectors with the key hash computed
  // once and cached alongside the pair; nothing after the map barrier ever
  // rehashes a key.
  const auto wall_map_start = wall_now();
  std::vector<TaskResult> results(splits.size());
  common::parallel_for(
      pool, splits.size(),
      [&](std::size_t t) {
        const InputSplit& split = splits[t];
        TaskResult& r = results[t];
        r.arena = std::make_unique<common::Arena>();
        common::Arena& arena = *r.arena;
        auto mapper = job.mapper_factory();
        VectorEmitter emitter(arena);
        std::uint64_t records = 0;
        const std::uint64_t skipped = workload::for_each_record(
            split.data, [&](const workload::RecordView& rv) {
              mapper->map(rv, emitter);
              ++records;
            });
        mapper->finish(emitter);
        r.records = records;
        r.skipped = skipped;
        r.counters = std::move(emitter.counters());
        auto hashed = hash_pairs(std::move(emitter.pairs()), arena);
        if (job.combiner_factory) {
          auto combiner = job.combiner_factory();
          hashed = hash_pairs(reduce_pairs(*combiner, std::move(hashed),
                                           arena, &r.counters),
                              arena);
        }
        r.pair_count = hashed.size();
        r.partitions.reserve(R);
        for (std::uint32_t p = 0; p < R; ++p) {
          r.partitions.emplace_back(common::ArenaAllocator<HashedPair>(arena));
        }
        r.partition_bytes.assign(R, 0);
        for (auto& hp : hashed) {
          const auto p = static_cast<std::uint32_t>(hp.hash % R);
          r.partition_bytes[p] += hp.key.size() + hp.value.size() + 2;
          r.partitions[p].push_back(std::move(hp));
        }
      },
      /*grain=*/1);  // map tasks are coarse; chunking would serialize them
  const auto wall_map_end = wall_now();
  report.wall_map_seconds = wall_since(wall_map_start, wall_map_end);

  // ---- Deterministic simulated map timing. ----
  report.map_tasks.resize(splits.size());
  report.node_map_seconds.assign(options_.num_nodes, 0.0);
  const auto speed_of = [&](std::uint32_t node) {
    return options_.node_speed.empty() ? 1.0 : options_.node_speed[node];
  };
  {
    // Per node: multi-slot list scheduling in task arrival order.
    std::vector<std::vector<double>> slot_free(
        options_.num_nodes, std::vector<double>(options_.slots_per_node, 0.0));
    for (std::size_t t = 0; t < splits.size(); ++t) {
      const InputSplit& split = splits[t];
      auto& slots = slot_free[split.node];
      auto it = std::min_element(slots.begin(), slots.end());
      const double start = *it;
      const double dur = job.config.cost.map_seconds(split.effective_bytes(),
                                                     results[t].records) /
                         speed_of(split.node);
      *it = start + dur;
      report.map_tasks[t] = TaskTiming{split.node, start, start + dur};
      report.node_map_seconds[split.node] =
          std::max(report.node_map_seconds[split.node], start + dur);
    }
  }

  if (options_.speculative && options_.num_nodes > 1 && !splits.empty()) {
    report.attempts.timing_backups = apply_speculative_backups(
        report.map_tasks, report.node_map_seconds,
        [&](std::size_t t, std::uint32_t node) {
          return job.config.cost.map_seconds(splits[t].effective_bytes(),
                                             results[t].records) /
                 speed_of(node);
        });
  }

  report.map_phase_seconds = splits.empty()
                                 ? 0.0
                                 : *std::max_element(report.node_map_seconds.begin(),
                                                     report.node_map_seconds.end());
  report.first_map_finish_seconds = report.map_phase_seconds;
  for (const auto& tt : report.map_tasks) {
    report.first_map_finish_seconds =
        std::min(report.first_map_finish_seconds, tt.finish);
  }

  // ---- Shuffle: gather per-task partitions, sized per reducer. ----
  const auto wall_shuffle_start = wall_now();
  for (std::size_t t = 0; t < splits.size(); ++t) {
    report.input_records += results[t].records;
    report.skipped_lines += results[t].skipped;
    report.input_bytes += splits[t].data.size();
    report.map_output_pairs += results[t].pair_count;
    for (const auto& [name, v] : results[t].counters) {
      report.counters[name] += v;  // report.counters is a map: order-free
    }
  }
  // Each reducer's partition is the concatenation of every task's slice in
  // task order — the same order the old serial partition loop produced.
  // Partitions are independent, so the gather runs on the pool; each gets
  // its own arena (shared with its reduce below — arenas are single-thread).
  std::vector<std::unique_ptr<common::Arena>> reduce_arenas(R);
  for (std::uint32_t p = 0; p < R; ++p) {
    reduce_arenas[p] = std::make_unique<common::Arena>();
  }
  std::vector<std::optional<common::ArenaVector<HashedPair>>> partitions(R);
  std::vector<std::uint64_t> partition_bytes(R, 0);
  common::parallel_for(pool, R, [&](std::size_t p) {
    auto& part = partitions[p].emplace(
        common::ArenaAllocator<HashedPair>(*reduce_arenas[p]));
    std::size_t total = 0;
    for (const auto& r : results) total += r.partitions[p].size();
    part.reserve(total);
    for (auto& r : results) {
      for (auto& hp : r.partitions[p]) part.push_back(std::move(hp));
      partition_bytes[p] += r.partition_bytes[p];
    }
  });
  for (std::uint32_t p = 0; p < R; ++p) report.shuffle_bytes += partition_bytes[p];

  report.shuffle_task_seconds.resize(R);
  for (std::uint32_t p = 0; p < R; ++p) {
    // Paper semantics: a shuffle task is alive from the first map completion
    // until the last map completes, plus its own transfer time.
    const double wait = splits.empty() ? 0.0
                                       : report.map_phase_seconds -
                                             report.first_map_finish_seconds;
    report.shuffle_task_seconds[p] =
        wait + job.config.cost.transfer_seconds(partition_bytes[p]);
  }
  report.shuffle_phase_seconds =
      R ? *std::max_element(report.shuffle_task_seconds.begin(),
                            report.shuffle_task_seconds.end())
        : 0.0;

  // ---- Real reduce (parallel over partitions) + simulated timing. ----
  // Each partition groups and reduces independently on the pool into
  // per-partition buffers; the merge below runs serially in partition order,
  // so output and counters are identical to the serial path.
  std::vector<std::optional<common::ArenaVector<std::pair<Key, Value>>>>
      reduced(R);
  std::vector<CounterList> reduce_counters(R);
  common::parallel_for(pool, R, [&](std::size_t p) {
    auto reducer = job.reducer_factory();
    reduced[p] = reduce_pairs(*reducer, std::move(*partitions[p]),
                              *reduce_arenas[p], &reduce_counters[p]);
  });
  report.reduce_task_seconds.resize(R);
  for (std::uint32_t p = 0; p < R; ++p) {
    for (auto& kv : *reduced[p]) report.output.insert(std::move(kv));
    for (const auto& [name, v] : reduce_counters[p]) report.counters[name] += v;
    report.reduce_task_seconds[p] =
        job.config.cost.reduce_seconds(partition_bytes[p]);
  }
  report.wall_shuffle_reduce_seconds =
      wall_since(wall_shuffle_start, wall_now());
  report.reduce_phase_seconds =
      R ? *std::max_element(report.reduce_task_seconds.begin(),
                            report.reduce_task_seconds.end())
        : 0.0;

  // Total: map phase, then the slowest reducer's transfer + reduce. The wait
  // component of shuffle overlaps the map phase tail by construction.
  double tail = 0.0;
  for (std::uint32_t p = 0; p < R; ++p) {
    tail = std::max(tail, job.config.cost.transfer_seconds(partition_bytes[p]) +
                              report.reduce_task_seconds[p]);
  }
  report.total_seconds = report.map_phase_seconds + tail;
  return report;
}

}  // namespace datanet::mapred
