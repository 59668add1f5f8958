// perfbench/src/kv.cpp — the cxlpmemd workloads, kv_update and
// kv_read_tier.
//
// A service::Server runs embedded in-process (2 shards, pools on pmem2 of
// the Setup #1 runtime) and two service::Client connections drive it over
// loopback in a closed loop: each sends a pipelined burst of 16 commands,
// waits for all 16 replies, checks them and sends the next.  Keys are
// scrambled-zipfian (theta 0.99) over 100k preloaded keys; each key is
// SET only by the connection that owns it (key index parity), so its
// owner always knows the newest sequence number the server acknowledged.
//
// Values are self-describing: "<key>:<seq>:<fingerprint>:<filler>", so
// every GET reply is checked for its key, its framing and its payload, and
// an owned key must never read back older than its last acknowledged SET.
// After the measured interval the server is stopped gracefully, started
// again on the same pools, and every key is read back under the same rule.
//
// The traced run interleaves traced and untraced bursts (odd burst ids are
// traced) and then replays the recorded op stream outside the server:
// RESP parse of the burst frames, and per shard share of each burst one
// run_tx on a BasicDurableMap under a LaneSession (or the tier's get path)
// — the per-layer split of the wire round trip, timed from outside — and
// after it the PoolStats call the shard worker makes after every batch to
// decide on compaction, which runs after the replies are sent.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/cxlpmem.hpp"
#include "common.hpp"
#include "service/client.hpp"
#include "service/durable_map.hpp"
#include "service/resp.hpp"
#include "service/server.hpp"
#include "tierkv/cache.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cxlpmem;

constexpr std::uint64_t kKeys = 100000;
constexpr int kConns = 2;
constexpr int kDepth = 16;
constexpr int kShards = 2;
constexpr int kPreloadDepth = 64;
constexpr std::size_t kKeyBytes = 16;
constexpr std::size_t kHeaderBytes = 47;  // key ':' seq(12) ':' fp(16) ':'
constexpr std::size_t kReplayBurstsPerConn = 6000;

constexpr std::size_t kValueBytes = 128;
constexpr std::uint64_t kPoolBytes = 64ull << 20;  // per shard
// The ~13 MB of raw values are ~6x the tier.  With 1 KiB values (~100 MB
// raw, 16 MiB tier) the shards' chains spilled out of the shared L3, and
// CPU per op moved by 25% with the host's memory traffic within one set
// of runs.
constexpr std::uint64_t kTierDramBytes = 2ull << 20;  // total

struct KvSpec {
  bool tier = false;
  int set_pct = 50;
};

std::string key_of(std::uint64_t idx) {
  char b[kKeyBytes + 1];
  std::snprintf(b, sizeof(b), "key:%012llu",
                static_cast<unsigned long long>(idx));
  return std::string(b, kKeyBytes);
}

/// Filler derived from (key, seq): in every 64-byte group, 28 random
/// letters and then a 36-byte repeat of them, which an LZ codec stores at
/// about half the raw size.
void fill(std::string& v, std::uint64_t key, std::uint32_t seq) {
  Rng rng(key, seq);
  for (std::size_t i = kHeaderBytes; i < v.size(); ++i)
    v[i] = (i - kHeaderBytes) % 64 < 28
               ? static_cast<char>('a' + rng.below(26))
               : v[i - 28];
}

std::string make_value(std::uint64_t key, std::uint32_t seq) {
  std::string v(kValueBytes, ' ');
  fill(v, key, seq);
  const std::uint64_t fp =
      fingerprint(v.data() + kHeaderBytes, kValueBytes - kHeaderBytes);
  char head[kHeaderBytes + 1];
  std::snprintf(head, sizeof(head), "%s:%012u:%016llx:", key_of(key).c_str(),
                seq, static_cast<unsigned long long>(fp));
  std::memcpy(v.data(), head, kHeaderBytes);
  return v;
}

/// Validates a self-describing value for `key`; returns its sequence
/// number, or -1 when the value is not a valid value of that key.
long long check_value(std::uint64_t key, std::string_view v) {
  if (v.size() != kValueBytes) return -1;
  const std::string k = key_of(key);
  if (v.substr(0, kKeyBytes) != k || v[16] != ':' || v[29] != ':' ||
      v[46] != ':')
    return -1;
  long long seq = 0;
  for (std::size_t i = 17; i < 29; ++i) {
    if (v[i] < '0' || v[i] > '9') return -1;
    seq = seq * 10 + (v[i] - '0');
  }
  unsigned long long fp = 0;
  for (std::size_t i = 30; i < 46; ++i) {
    const char c = v[i];
    const int d = (c >= '0' && c <= '9')   ? c - '0'
                  : (c >= 'a' && c <= 'f') ? c - 'a' + 10
                                           : -1;
    if (d < 0) return -1;
    fp = fp * 16 + static_cast<unsigned>(d);
  }
  if (fingerprint(v.data() + kHeaderBytes, kValueBytes - kHeaderBytes) != fp)
    return -1;
  return seq;
}

/// Mirrors the server's key routing (fnv1a64 of the key, modulo shards).
int shard_of(std::string_view key) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : key)
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return static_cast<int>(h % kShards);
}

struct Op {
  std::uint32_t key;
  std::uint32_t seq;  ///< SET: the sequence number written
  bool set;
};

/// Per-run key state.  Element k of each vector is read and written only
/// by the connection owning key k (k % kConns), so the client threads never
/// share an element.
struct KeyState {
  std::vector<std::uint32_t> next_seq = std::vector<std::uint32_t>(kKeys, 0);
  std::vector<std::uint32_t> acked = std::vector<std::uint32_t>(kKeys, 0);
};

struct ConnResult {
  Samples flush_us;        ///< untraced timed bursts: flush() round trip
  Samples cycle_us;        ///< untraced timed bursts: whole loop iteration
  Samples cycle_traced_us; ///< traced timed bursts: whole loop iteration
  std::uint64_t timed_ok = 0;  ///< ok ops of every timed burst
  std::atomic<std::uint64_t> done{0};  ///< timed_ok, published for sampling
  std::vector<std::vector<Op>> bursts;  ///< recorded for the replay
  SpanLog log;
  Tally tally;
};

struct Context {
  const Args* args;
  KvSpec spec;
  std::uint16_t port = 0;
  KeyState* keys = nullptr;
  const Zipf* zipf = nullptr;
};

/// Counts a reply that is not a clean answer; returns false if it failed.
bool accept_reply(const service::RespValue& r, const Op& op, KeyState& ks,
                  int conn, std::uint32_t floor_seq) {
  if (r.type == service::RespValue::Type::Error) return false;
  if (op.set) {
    if (r.type != service::RespValue::Type::Simple || r.text != "OK")
      return false;
    ks.acked[op.key] = op.seq;
    return true;
  }
  if (r.type == service::RespValue::Type::Null) return true;
  if (r.type != service::RespValue::Type::Bulk) return false;
  const long long seq = check_value(op.key, r.text);
  if (seq < 0) return false;
  const bool owned = static_cast<int>(op.key % kConns) == conn;
  return !owned || seq >= static_cast<long long>(floor_seq);
}

void conn_loop(const Context& ctx, int conn, Clock::time_point warm_end,
               Clock::time_point deadline, ConnResult& out) {
  api::Result<service::Client> connected = service::Client::connect(ctx.port);
  if (!connected.ok()) {
    out.tally.attempted += 1;
    out.tally.failed += 1;
    return;
  }
  service::Client c = std::move(connected).value();
  Rng rng(ctx.args->seed, 100 + static_cast<std::uint64_t>(conn));
  KeyState& ks = *ctx.keys;
  const bool record = ctx.args->trace;
  long long gets_seen = 0;
  std::vector<Op> ops(kDepth);
  std::vector<std::string> keys(kDepth), values(kDepth);
  std::vector<std::uint32_t> floor_seq(kDepth);
  for (std::uint64_t burst = 0;; ++burst) {
    const Clock::time_point start = Clock::now();
    if (start >= deadline) break;
    const bool timed = start >= warm_end;
    SpanLog* log = (record && timed && burst % 2 == 1) ? &out.log : nullptr;
    const ScopedSpan root(log, "burst", -1, burst);
    for (int i = 0; i < kDepth; ++i) {
      std::uint64_t k = ctx.zipf->next(rng);
      const bool set =
          static_cast<int>(rng.below(100)) < ctx.spec.set_pct;
      if (set) k = (k & ~std::uint64_t{1}) | static_cast<std::uint64_t>(conn);
      Op& op = ops[static_cast<std::size_t>(i)];
      op = Op{static_cast<std::uint32_t>(k), 0, set};
      keys[static_cast<std::size_t>(i)] = key_of(k);
      // The floor of a key the other connection owns is that connection's
      // to write, and is not needed: only an owned key has one.
      const bool owned = static_cast<int>(k % kConns) == conn;
      floor_seq[static_cast<std::size_t>(i)] = owned ? ks.acked[k] : 0;
      if (set) {
        op.seq = ++ks.next_seq[k];
        values[static_cast<std::size_t>(i)] =
            make_value(k, op.seq);
      }
    }
    {
      const ScopedSpan enc(log, "client.encode", root.index(), burst);
      for (int i = 0; i < kDepth; ++i) {
        const auto u = static_cast<std::size_t>(i);
        if (ops[u].set)
          c.queue_set(keys[u], values[u]);
        else
          c.queue_get(keys[u]);
      }
    }
    const Clock::time_point t0 = Clock::now();
    api::Result<std::vector<service::RespValue>> replies = [&] {
      const ScopedSpan fl(log, "client.flush", root.index(), burst);
      return c.flush();
    }();
    const Clock::time_point t1 = Clock::now();
    out.tally.attempted += kDepth;
    if (!replies.ok() || replies.value().size() != kDepth) {
      out.tally.failed += kDepth;  // transport lost: the whole burst
      std::fprintf(stderr, "conn %d: burst lost: %s\n", conn,
                   replies.ok() ? "short reply"
                                : replies.error().to_string().c_str());
      break;
    }
    std::uint64_t ok = 0;
    {
      const ScopedSpan chk(log, "bench.check", root.index(), burst);
      for (int i = 0; i < kDepth; ++i) {
        const auto u = static_cast<std::size_t>(i);
        service::RespValue& r = replies.value()[u];
        if (!ops[u].set && conn == 0 &&
            gets_seen++ == ctx.args->inject_bad_get &&
            r.type == service::RespValue::Type::Bulk && !r.text.empty())
          r.text[r.text.size() - 1] ^= 0x20;
        if (accept_reply(r, ops[u], ks, conn, floor_seq[u]))
          ++ok;
        else
          out.tally.failed += 1;
      }
    }
    if (!timed) continue;
    out.timed_ok += ok;
    out.done.store(out.timed_ok, std::memory_order_relaxed);
    const double cycle = us_between(start, Clock::now());
    if (log != nullptr) {
      out.cycle_traced_us.add(cycle);
    } else {
      out.cycle_us.add(cycle);
      out.flush_us.add(us_between(t0, t1));
    }
    if (record && out.bursts.size() < kReplayBurstsPerConn)
      out.bursts.push_back(ops);
  }
}

/// Writes the owned half of the keys at sequence 0 through one connection.
void preload(std::uint16_t port, int conn, Tally& tally) {
  api::Result<service::Client> connected = service::Client::connect(port);
  require(connected, "preload connect");
  service::Client c = std::move(connected).value();
  std::uint64_t k = static_cast<std::uint64_t>(conn);
  while (k < kKeys) {
    for (int i = 0; i < kPreloadDepth && k < kKeys; ++i, k += kConns)
      c.queue_set(key_of(k), make_value(k, 0));
    const std::size_t n = c.queued();
    const api::Result<std::vector<service::RespValue>> r = c.flush();
    tally.attempted += n;
    require(r, "preload");
    for (const service::RespValue& v : r.value())
      if (v.type != service::RespValue::Type::Simple) tally.failed += 1;
  }
}

/// Reads every key back; each must hold a valid value no older than the
/// last SET its owner saw acknowledged.
void verify_all(std::uint16_t port, const KeyState& ks, Tally& tally) {
  api::Result<service::Client> connected = service::Client::connect(port);
  if (!connected.ok()) {
    tally.attempted += kKeys;
    tally.failed += kKeys;
    return;
  }
  service::Client c = std::move(connected).value();
  for (std::uint64_t base = 0; base < kKeys; base += kPreloadDepth) {
    const std::uint64_t end = std::min(kKeys, base + kPreloadDepth);
    for (std::uint64_t k = base; k < end; ++k) c.queue_get(key_of(k));
    const api::Result<std::vector<service::RespValue>> r = c.flush();
    tally.attempted += end - base;
    if (!r.ok()) {
      tally.failed += end - base;
      continue;
    }
    for (std::uint64_t k = base; k < end; ++k) {
      const service::RespValue& v = r.value()[k - base];
      const long long seq =
          v.type == service::RespValue::Type::Bulk
              ? check_value(k, v.text)
              : -1;
      if (seq < static_cast<long long>(ks.acked[k])) tally.failed += 1;
    }
  }
}

service::ServerOptions server_options(const KvSpec& spec) {
  service::ServerOptions o;
  o.ns = "pmem2";
  o.shards = kShards;
  o.pool_size_bytes = kPoolBytes;
  o.pool_stem = "kvshard";
  o.tier = spec.tier;
  o.tier_dram_bytes = kTierDramBytes;
  o.tier_codec = "lz";
  o.tier_prefetch = true;
  return o;
}

struct Deployment {
  std::unique_ptr<api::Runtime> rt;
  std::unique_ptr<service::Server> server;
  std::unique_ptr<KeyState> keys;
  fs::path dir;

  void start(const fs::path& d, const KvSpec& spec, Tally& tally) {
    dir = d;
    auto built = api::RuntimeBuilder::setup_one().base_dir(dir).build();
    require(built, "runtime");
    rt = std::make_unique<api::Runtime>(std::move(built).value());
    auto s = service::Server::start(*rt, server_options(spec));
    require(s, "server");
    server = std::move(s).value();
    keys = std::make_unique<KeyState>();
    std::vector<std::thread> loaders;
    std::vector<Tally> t(kConns);
    std::vector<std::string> errors(kConns);
    for (int c = 0; c < kConns; ++c)
      loaders.emplace_back([&, c] {
        try {
          preload(server->port(), c, t[static_cast<std::size_t>(c)]);
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(c)] = e.what();
        }
      });
    for (std::thread& th : loaders) th.join();
    for (int c = 0; c < kConns; ++c) {
      if (!errors[static_cast<std::size_t>(c)].empty())
        throw std::runtime_error(errors[static_cast<std::size_t>(c)]);
      tally.attempted += t[static_cast<std::size_t>(c)].attempted;
      tally.failed += t[static_cast<std::size_t>(c)].failed;
    }
  }

  void teardown() {
    if (server) server->stop();
    server.reset();
    rt.reset();
    keys.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

struct ServerDelta {
  std::uint64_t ops = 0, batches = 0, shed = 0, max_shard_ops = 0;
  std::uint64_t compactions = 0;
  double mean_keys = 0, mean_frag = 0;
  tierkv::TierStats tier;
};

ServerDelta diff(const service::ServerInfo& a, const service::ServerInfo& b) {
  ServerDelta d;
  for (std::size_t i = 0; i < b.shards.size(); ++i) {
    const service::ShardInfo& x = a.shards[i];
    const service::ShardInfo& y = b.shards[i];
    d.ops += y.ops - x.ops;
    d.batches += y.batches - x.batches;
    d.shed += y.shed - x.shed;
    d.compactions += y.compactions - x.compactions;
    d.max_shard_ops = std::max(d.max_shard_ops, y.ops - x.ops);
    d.mean_keys += static_cast<double>(y.keys) / b.shards.size();
    d.mean_frag += y.fragmentation / b.shards.size();
  }
  const tierkv::TierStats& s = a.tier_stats;
  const tierkv::TierStats& t = b.tier_stats;
  d.tier = t;
  d.tier.hits = t.hits - s.hits;
  d.tier.misses = t.misses - s.misses;
  d.tier.promotions = t.promotions - s.promotions;
  d.tier.demotions = t.demotions - s.demotions;
  d.tier.prefetch_hits = t.prefetch_hits - s.prefetch_hits;
  d.tier.prefetch_issued = t.prefetch_issued - s.prefetch_issued;
  return d;
}

/// What the replay measured, per burst, for the attribution of the wire
/// round trip and of the CPU time.
struct Replayed {
  Samples burst_us;       ///< parse + slowest shard share (the reply path)
  Samples work_us;        ///< parse + every shard share
  Samples post_batch_us;  ///< one PoolStats call, per shard share
};

/// Replays the recorded bursts outside the server and fills the storage,
/// parse and tier layer metrics.
Replayed replay(api::Runtime& rt, const KvSpec& spec,
                const std::vector<std::vector<Op>>& bursts, SpanLog& log,
                Report& report) {
  std::vector<api::Pool> pools;
  std::vector<std::unique_ptr<service::DurableMap>> maps;
  std::vector<api::TieredCache> tiers;
  for (int s = 0; s < kShards; ++s) {
    if (spec.tier) {
      api::TierSpec ts;
      ts.pool.file = "replay-tier-" + std::to_string(s) + ".pool";
      ts.pool.size = kPoolBytes;
      ts.codec = "lz";
      ts.dram_bytes = kTierDramBytes / kShards;
      ts.prefetch = true;
      auto t = api::TieredCache::open(rt, "pmem2", "perfbench-replay", ts);
      require(t, "replay tier");
      tiers.push_back(std::move(t).value());
    } else {
      api::PoolSpec ps;
      ps.file = "replay-" + std::to_string(s) + ".pool";
      ps.size = kPoolBytes;
      auto p = rt.create_pool("pmem2", "perfbench-replay", ps);
      require(p, "replay pool");
      pools.push_back(std::move(p).value());
      maps.push_back(
          std::make_unique<service::DurableMap>(pools.back().pmem()));
    }
  }
  // Same starting image as the server: every key of the shard at seq 0.
  for (int s = 0; s < kShards; ++s) {
    std::vector<std::uint64_t> mine;
    for (std::uint64_t k = 0; k < kKeys; ++k)
      if (shard_of(key_of(k)) == s) mine.push_back(k);
    for (std::size_t i = 0; i < mine.size(); i += kPreloadDepth) {
      const std::size_t end = std::min(mine.size(), i + kPreloadDepth);
      if (spec.tier) {
        for (std::size_t j = i; j < end; ++j)
          (void)tiers[static_cast<std::size_t>(s)].put(
              key_of(mine[j]), make_value(mine[j], 0));
      } else {
        service::DurableMap& m = *maps[static_cast<std::size_t>(s)];
        (void)pools[static_cast<std::size_t>(s)].run_tx([&] {
          for (std::size_t j = i; j < end; ++j)
            m.put_in_tx(key_of(mine[j]),
                        make_value(mine[j], 0));
        });
      }
    }
  }
  std::vector<pmemkit::PoolStats> before;
  for (api::Pool& p : pools) before.push_back(p.stats());
  std::vector<std::unique_ptr<pmemkit::ObjectPool::LaneSession>> lanes;
  for (api::Pool& p : pools)
    lanes.push_back(
        std::make_unique<pmemkit::ObjectPool::LaneSession>(p.pmem()));

  Replayed out;
  Samples parse_ns_per_cmd, fences_per_burst, fences_per_tx;
  // The tier pass runs twice: the first (untraced) warms the DRAM tier the
  // way the wire warm-up warmed the server's.
  const int passes = spec.tier ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    SpanLog* sl = pass + 1 == passes ? &log : nullptr;
    for (std::size_t b = 0; b < bursts.size(); ++b) {
      const std::vector<Op>& ops = bursts[b];
      std::vector<std::string> keys, values;
      std::string frames;
      for (const Op& op : ops) {
        keys.push_back(key_of(op.key));
        values.push_back(op.set ? make_value(op.key, op.seq)
                                : std::string());
        frames += op.set ? service::encode_command({"SET", keys.back(),
                                                    values.back()})
                         : service::encode_command({"GET", keys.back()});
      }
      const ScopedSpan root(sl, "replay.burst", -1, b);
      const Clock::time_point p0 = Clock::now();
      {
        const ScopedSpan ps(sl, "resp.parse", root.index(), b);
        service::RespParser parser;
        parser.feed(frames);
        service::RespValue v;
        while (parser.next(v) == service::RespParser::Status::Value)
          if (!service::parse_command(v).ok())
            throw std::runtime_error("replay: frame did not parse");
      }
      const double parse_us = us_between(p0, Clock::now());
      double slowest_share_us = 0, shares_us = 0;
      std::uint64_t burst_fences = 0;
      for (int s = 0; s < kShards; ++s) {
        std::vector<std::size_t> share;
        for (std::size_t i = 0; i < ops.size(); ++i)
          if (shard_of(keys[i]) == s) share.push_back(i);
        if (share.empty()) continue;
        const bool mutation =
            std::any_of(share.begin(), share.end(),
                        [&](std::size_t i) { return ops[i].set; });
        const Clock::time_point s0 = Clock::now();
        {
          const ScopedSpan shard_span(sl, "storage.shard", root.index(), b);
          if (spec.tier) {
            api::TieredCache& t = tiers[static_cast<std::size_t>(s)];
            for (const std::size_t i : share) {
              const ScopedSpan g(sl, "tier.get", shard_span.index(), b);
              if (!t.get(keys[i]).ok())
                throw std::runtime_error("replay: tier get failed");
            }
          } else if (mutation) {
            service::DurableMap& m = *maps[static_cast<std::size_t>(s)];
            const std::uint64_t f0 =
                pmemkit::PersistentRegion::thread_drain_count();
            {
              const ScopedSpan tx(sl, "storage.burst_tx", shard_span.index(),
                                  b);
              const api::Result<void> r =
                  pools[static_cast<std::size_t>(s)].run_tx([&] {
                    for (const std::size_t i : share) {
                      if (ops[i].set)
                        m.put_in_tx(keys[i], values[i]);
                      else
                        (void)m.get(keys[i]);
                    }
                  });
              require(r, "replay tx");
            }
            const std::uint64_t f =
                pmemkit::PersistentRegion::thread_drain_count() - f0;
            burst_fences += f;
            if (sl) fences_per_tx.add(static_cast<double>(f));
          } else {
            service::DurableMap& m = *maps[static_cast<std::size_t>(s)];
            for (const std::size_t i : share) (void)m.get(keys[i]);
          }
        }
        const double share_us = us_between(s0, Clock::now());
        slowest_share_us = std::max(slowest_share_us, share_us);
        shares_us += share_us;
        // The shard worker's post-batch step: Server::maybe_compact reads
        // the pool's PoolStats after every batch, after the replies went.
        api::Pool& pool = spec.tier ? tiers[static_cast<std::size_t>(s)].pool()
                                    : pools[static_cast<std::size_t>(s)];
        const Clock::time_point c0 = Clock::now();
        {
          const ScopedSpan pb(sl, "service.post_batch_stats", root.index(), b);
          (void)pool.stats();
        }
        if (sl == nullptr) continue;
        out.post_batch_us.add(us_between(c0, Clock::now()));
      }
      if (sl == nullptr) continue;
      out.burst_us.add(parse_us + slowest_share_us);
      out.work_us.add(parse_us + shares_us);
      parse_ns_per_cmd.add(parse_us * 1e3 / static_cast<double>(ops.size()));
      fences_per_burst.add(static_cast<double>(burst_fences));
    }
  }
  lanes.clear();

  report.set("resp.parse_ns_per_cmd", parse_ns_per_cmd.pct(0.5),
             parse_ns_per_cmd.size());
  if (!spec.tier) {
    report.set("pmemkit.fences_per_burst", fences_per_burst.mean(),
               fences_per_burst.size());
    report.set("pmemkit.fences_per_tx", fences_per_tx.mean(),
               fences_per_tx.size());
    pmemkit::HeapStats h{};
    std::uint64_t lane_waits = 0;
    for (std::size_t s = 0; s < pools.size(); ++s) {
      const pmemkit::PoolStats st = pools[s].stats();
      h.alloc_ops += st.heap.alloc_ops - before[s].heap.alloc_ops;
      const pmemkit::HeapStats& b = before[s].heap;
      h.run_lock_skips += st.heap.run_lock_skips - b.run_lock_skips;
      h.run_lock_waits += st.heap.run_lock_waits - b.run_lock_waits;
      lane_waits += st.lane_waits - before[s].lane_waits;
    }
    report.set("heap.alloc_ops", static_cast<double>(h.alloc_ops), 1);
    report.set("heap.run_lock_skips_per_alloc",
               ratio(static_cast<double>(h.run_lock_skips),
                     static_cast<double>(h.alloc_ops)),
               h.alloc_ops);
    report.set("heap.run_lock_waits", static_cast<double>(h.run_lock_waits), 1);
    report.set("pool.lane_waits", static_cast<double>(lane_waits), 1);
  }
  for (api::TieredCache& t : tiers) t.engine().stop();
  return out;
}

void run_kv(const Args& args, const KvSpec& spec, Report& report,
            Tally& tally) {
  Deployment dep;
  const SetupTime setup = median_setup_seconds(
      [&](int r) {
        dep.start(args.dir / ("setup-" + std::to_string(r)), spec, tally);
      },
      [&] { dep.teardown(); });

  const Zipf zipf(kKeys, 0.99);
  Context ctx{&args, spec, dep.server->port(), dep.keys.get(), &zipf};
  const Clock::time_point t0 = Clock::now();
  const auto warm_end = t0 + std::chrono::milliseconds(kWarmupMs);
  const auto deadline = after(warm_end, args.seconds);
  std::vector<ConnResult> res(kConns);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c)
    threads.emplace_back([&, c] {
      conn_loop(ctx, c, warm_end, deadline, res[static_cast<std::size_t>(c)]);
    });
  std::this_thread::sleep_until(warm_end);
  const service::ServerInfo info0 = dep.server->info();
  const double rss = peak_rss_mb();
  const double rss0 = current_rss_mb();
  CpuPerOp cpu;
  sample_cpu(cpu, warm_end, args.seconds, [&] {
    std::uint64_t n = 0;
    for (const ConnResult& r : res) n += r.done.load(std::memory_order_relaxed);
    return n;
  });
  for (std::thread& th : threads) th.join();
  const double rss1 = current_rss_mb();
  const service::ServerInfo info1 = dep.server->info();

  Samples flush, cycle, cycle_traced;
  std::uint64_t ops = 0;
  for (ConnResult& r : res) {
    ops += r.timed_ok;
    flush.append(r.flush_us);
    cycle.append(r.cycle_us);
    cycle_traced.append(r.cycle_traced_us);
    tally.attempted += r.tally.attempted;
    tally.failed += r.tally.failed;
  }

  // Durability across a graceful restart on the same pools.
  dep.server->stop();
  dep.server.reset();
  {
    auto again = service::Server::start(*dep.rt, server_options(spec));
    if (!again.ok()) {
      tally.attempted += kKeys;
      tally.failed += kKeys;
    } else {
      verify_all(again.value()->port(), *dep.keys, tally);
      again.value()->stop();
    }
  }

  report.set("cpu_us_per_op", cpu.lower_quartile_us(), cpu.windows());
  const auto reps = static_cast<std::uint64_t>(setup.reps);
  report.set("setup_s", setup.cpu_s, reps);
  report.set("wall.setup_s", setup.wall_s, reps);
  report.set("peak_rss_mb", rss, 1);
  report.set("wall.ops_per_s", static_cast<double>(ops) / args.seconds, ops);
  report.set("wall.p50_us", flush.pct(0.50), flush.size());
  report.set("wall.tail_us", flush.pct(0.99), flush.size());
  report.set("mem.rss_end_mb", rss1, 1);
  report.set("mem.rss_growth_mb", rss1 - rss0, 1);
  if (!args.trace) {
    dep.teardown();
    return;
  }

  // --- traced run: per-layer metrics -----------------------------------------
  const ServerDelta d = diff(info0, info1);
  std::vector<std::vector<Op>> bursts;
  for (std::size_t i = 0; i < kReplayBurstsPerConn; ++i)
    for (ConnResult& r : res)
      if (i < r.bursts.size()) bursts.push_back(std::move(r.bursts[i]));
  SpanLog replay_log;
  const Replayed replayed = replay(*dep.rt, spec, bursts, replay_log, report);

  SpanSummary spans;
  for (ConnResult& r : res) spans.add_log(r.log);
  spans.add_log(replay_log);
  spans.write(args.trace_out);

  const double burst_p50 = flush.pct(0.5);
  const double replayed_p50 = replayed.burst_us.pct(0.5);
  const SpanStats& enc = spans.at("client.encode");
  report.set("client.encode_us_per_burst", enc.self_us.pct(0.5),
             enc.self_us.size());
  report.set("service.unattributed_us_per_burst", burst_p50 - replayed_p50,
             replayed.burst_us.size());
  report.set("service.replayed_share_of_burst_p50",
             ratio(replayed_p50, burst_p50), replayed.burst_us.size());
  report.set("service.post_batch_stats_us", replayed.post_batch_us.pct(0.5),
             replayed.post_batch_us.size());
  report.set("service.compactions", static_cast<double>(d.compactions),
             kShards);
  // CPU attribution, per op: the client's own work (generating the burst,
  // the self time of the root span; encoding; checking the replies), the
  // replayed parse and shard shares, and one post-batch PoolStats call per
  // server batch.  A read-only batch commits nothing and is not counted in
  // ShardInfo.batches; there the fewest batches the closed loop can form
  // stand in (each carrying both connections' shares), so the share is a
  // lower bound.
  const double batches_per_op =
      d.batches > 0
          ? ratio(static_cast<double>(d.batches), static_cast<double>(d.ops))
          : static_cast<double>(kShards) / (kConns * kDepth);
  const double client_us_per_burst = spans.at("burst").self_us.mean() +
                                     enc.self_us.mean() +
                                     spans.at("bench.check").self_us.mean();
  const double explained_us_per_op =
      (client_us_per_burst + replayed.work_us.mean()) / kDepth +
      replayed.post_batch_us.mean() * batches_per_op;
  report.set("cpu.explained_share",
             ratio(explained_us_per_op, cpu.lower_quartile_us()),
             replayed.work_us.size());
  report.set("service.ops_per_batch",
             ratio(static_cast<double>(d.ops), static_cast<double>(d.batches)),
             d.batches);
  report.set("service.shard_skew",
             ratio(static_cast<double>(d.max_shard_ops),
                   static_cast<double>(d.ops) / kShards),
             kShards);
  report.set("service.busy_ratio",
             ratio(static_cast<double>(d.shed), static_cast<double>(d.ops)),
             d.ops);
  const SpanStats& btx = spans.at("storage.burst_tx");
  report.set("storage.burst_tx_p50_us", btx.dur_us.pct(0.5), btx.dur_us.size());
  report.set("storage.burst_tx_p99_us", btx.dur_us.pct(0.99),
             btx.dur_us.size());
  report.set("map.entries_per_bucket",
             d.mean_keys / service::DurableMap::bucket_count(), kShards);
  report.set("heap.fragmentation", d.mean_frag, kShards);
  report.set("heap.reserved_per_live", ratio(1.0, 1.0 - d.mean_frag), kShards);
  if (spec.tier) {
    const double kops = static_cast<double>(d.ops) / 1000.0;
    report.set("tier.hit_rate", d.tier.hit_rate(), d.tier.hits + d.tier.misses);
    const SpanStats& g = spans.at("tier.get");
    report.set("tier.get_p50_us", g.dur_us.pct(0.5), g.dur_us.size());
    report.set("tier.get_p99_us", g.dur_us.pct(0.99), g.dur_us.size());
    report.set("tier.promotions_per_kop",
               ratio(static_cast<double>(d.tier.promotions), kops), d.ops);
    report.set("tier.demotions_per_kop",
               ratio(static_cast<double>(d.tier.demotions), kops), d.ops);
    report.set("tier.prefetch_accuracy",
               ratio(static_cast<double>(d.tier.prefetch_hits),
                     static_cast<double>(d.tier.prefetch_issued)),
               d.tier.prefetch_issued);
    report.set("tier.compression_ratio", d.tier.compression_ratio(), 1);
  }
  const double c50 = cycle.pct(0.5);
  report.set("trace.overhead_pct",
             ratio(cycle_traced.pct(0.5) - c50, c50) * 100.0,
             cycle_traced.size());
  std::uint64_t n_spans = replay_log.spans().size();
  for (const ConnResult& r : res) n_spans += r.log.spans().size();
  report.set("trace.spans", static_cast<double>(n_spans), 1);
  dep.teardown();
}

}  // namespace

void run_kv_update(const Args& args, Report& report, Tally& tally) {
  run_kv(args, KvSpec{}, report, tally);
}

void run_kv_read_tier(const Args& args, Report& report, Tally& tally) {
  KvSpec spec;
  spec.tier = true;
  spec.set_pct = 0;
  run_kv(args, spec, report, tally);
}

}  // namespace perfbench
