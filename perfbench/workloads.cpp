#include "workloads.hpp"

#include <algorithm>
#include <thread>

#include "common/error.hpp"
#include "common/format.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using mp::protocol::Command;

namespace {

constexpr WorkloadShape kShapes[] = {
    // Figure 2/3: four portals retrieve for 1,000 users (zipf 1.1).
    {"portal_get", 4, 1000, false, Command::kGet},
    // §6.6: 256 users x 80 renewable jobs, each renewal a fresh client.
    {"job_renew", 0, 256, false, Command::kRenew},
    // Figure 1: 256 users re-delegate into their own 4 accounts.
    {"user_init", 0, 256, true, Command::kPut},
};

constexpr std::size_t kJobsPerUser = 80;
constexpr std::size_t kAccountsPerUser = 4;
constexpr double kZipfExponent = 1.1;
/// user_init: stored proxy lifetime requested by myproxy-init.
constexpr mp::Seconds kInitStoredLifetime{5L * 24 * 3600};
/// user_init: accounts opened at the primary and replica after the run.
constexpr std::size_t kInitCheckSample = 32;

mp::client::RetryPolicy no_retry() {
  // A refused or failed op must count as failed, not be retried away.
  mp::client::RetryPolicy policy;
  policy.max_attempts = 1;
  return policy;
}

/// Record the client op as a span while tracing.
template <typename Fn>
void traced_op(const std::string& username, std::uint64_t req, Fn&& fn) {
  if (!spans().enabled()) {
    fn();
    return;
  }
  const std::int64_t t0 = now_ns();
  fn();
  spans().add({"client.op", username, req, t0, now_ns()});
}

}  // namespace

const WorkloadShape* find_workload(std::string_view name) {
  for (const auto& shape : kShapes) {
    if (shape.name == name) return &shape;
  }
  return nullptr;
}

Workload::Workload(const WorkloadShape& shape, std::uint64_t seed,
                   const fs::path& dir, bool traced)
    : shape_(shape),
      seed_(seed),
      zipf_(shape.name == "portal_get" ? shape.users : 1, kZipfExponent) {
  pki_ = std::make_unique<Pki>(seed, shape.portals, shape.users);
  trust_ = pki_->trust();
  pending_.resize(generator_threads());
  Rng rng = Rng(seed).fork(0x6163);
  const auto& users = pki_->users();
  if (shape.name == "portal_get") {
    for (std::size_t u = 0; u < users.size(); ++u) {
      accounts_.push_back({mp::fmt::format("u{}-{}", u, token(rng, 6)),
                           token(rng, 16), u});
    }
  } else {
    const std::size_t per_user =
        shape.name == "job_renew" ? kJobsPerUser : kAccountsPerUser;
    for (std::size_t u = 0; u < users.size(); ++u) {
      for (std::size_t j = 0; j < per_user; ++j) {
        accounts_.push_back({mp::fmt::format("{}{}.{}-{}",
                                             shape.name == "job_renew"
                                                 ? "job"
                                                 : "acct",
                                             u, j, token(rng, 6)),
                             token(rng, 16), u});
      }
    }
  }
  written_.assign(accounts_.size(), false);
  last_write_.assign(accounts_.size(), {0, 0});

  StackOptions options;
  options.dir = dir;
  options.traced = traced;
  stack_ = std::make_unique<Stack>(
      *pki_, shipped_config(shape.replicated), options);
  preload();
  stack_->serve();

  for (const auto& portal : pki_->portals()) {
    portal_clients_.push_back(std::make_unique<mp::client::MyProxyClient>(
        portal, pki_->trust(), stack_->port(), no_retry()));
  }
  // First request: the set-up ends when the stack has served one op.
  if (!op(0, 0, 0) || !verify(0)) {
    throw mp::Error(mp::ErrorCode::kInternal,
                    "first request after start-up failed: " + first_error());
  }
  if (!stack_->drain_replica(mp::Millis(30000))) {
    throw mp::Error(mp::ErrorCode::kInternal,
                    "replica did not install its snapshot");
  }
}

Workload::~Workload() {
  portal_clients_.clear();
  stack_.reset();
}

void Workload::preload() {
  // Write the population through the serving Repository (commit sync off),
  // spread over the cores.
  const auto& users = pki_->users();
  const bool renewable = shape_.name == "job_renew";
  const std::size_t threads = generator_threads();
  std::vector<std::thread> workers;
  std::exception_ptr error;
  std::mutex error_mutex;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < accounts_.size(); i += threads) {
          const Account& a = accounts_[i];
          const User& owner = users[a.owner];
          mp::repository::StoreOptions store;
          if (renewable) {
            store.renewer_patterns = {owner.proxy.identity().str()};
          }
          stack_->repository().store(a.username, a.pass,
                                     owner.proxy.identity().str(),
                                     owner.proxy, store);
        }
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        error = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

const mp::gsi::Credential& Workload::client_credential() const {
  if (!pki_->portals().empty()) return pki_->portals().front();
  return pki_->users().front().proxy;
}

mp::client::MyProxyClient Workload::fresh_client(
    const mp::gsi::Credential& credential) const {
  return mp::client::MyProxyClient(credential, pki_->trust(), stack_->port(),
                                   no_retry());
}

std::size_t Workload::draw(Rng& rng) const {
  return shape_.name == "portal_get" ? zipf_(rng)
                                     : rng.uniform(accounts_.size());
}

bool Workload::op(std::size_t thread, std::size_t phase, std::uint64_t index) {
  Rng rng = Rng(seed_).fork((static_cast<std::uint64_t>(phase + 1) << 40) |
                            index);
  const std::size_t which = draw(rng);
  const Account& account = accounts_[which];
  const User& owner = pki_->users()[account.owner];
  const std::uint64_t req =
      (static_cast<std::uint64_t>(phase + 1) << 40) | (index + 1);

  Delivered& out = pending_[thread];
  out.owner = account.owner;
  switch (shape_.command) {
    case Command::kGet:
      traced_op(account.username, req, [&] {
        out.credential = portal_clients_[thread % portal_clients_.size()]->get(
            account.username, account.pass);
      });
      break;
    case Command::kRenew:
      traced_op(account.username, req, [&] {
        auto client = fresh_client(owner.proxy);
        out.credential = client.renew(account.username);
      });
      break;
    default: {
      traced_op(account.username, req, [&] {
        auto client = fresh_client(owner.proxy);
        mp::client::PutOptions options;
        options.stored_lifetime = kInitStoredLifetime;
        client.put(account.username, account.pass, owner.proxy, options);
      });
      const std::scoped_lock lock(results_mutex_);
      written_[which] = true;
      last_write_[which] = {phase, index};
      return true;
    }
  }
  out.received = mp::now();
  return true;
}

void Workload::note_error(const std::string& why) {
  const std::scoped_lock lock(results_mutex_);
  if (first_error_.empty()) first_error_ = why;
}

std::string Workload::first_error() const {
  const std::scoped_lock lock(results_mutex_);
  return first_error_;
}

bool Workload::verify(std::size_t thread) {
  if (shape_.command == Command::kPut) return true;
  const Delivered& d = pending_[thread];
  const auto& policy = stack_->repository().policy();
  const mp::Seconds max_lifetime = std::min(
      policy.default_delegation_lifetime, policy.max_delegation_lifetime);
  const std::string owner_dn = pki_->users()[d.owner].proxy.identity().str();
  try {
    const auto id = trust_.verify(d.credential.full_chain());
    if (id.identity.str() != owner_dn) {
      note_error("delivered proxy names " + id.identity.str() + ", not " +
                 owner_dn);
      return false;
    }
    if (!d.credential.certificate().public_key().same_public_key(
            d.credential.key())) {
      note_error("delivered proxy does not hold the client's key");
      return false;
    }
    const auto left = std::chrono::duration_cast<mp::Seconds>(
        d.credential.not_after() - d.received);
    if (left <= mp::Seconds(0) || left > max_lifetime) {
      note_error(mp::fmt::format("delivered proxy lifetime {} s outside "
                                 "policy {} s",
                                 left.count(), max_lifetime.count()));
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    note_error(std::string("delivered proxy fails verification: ") + e.what());
    return false;
  }
}

std::size_t Workload::check_replica(
    std::vector<std::vector<OpRecord>*> phases) {
  if (!shape_.replicated) return 0;
  std::size_t mismatches = 0;
  const auto fail = [&](std::size_t phase, std::uint64_t index,
                        const std::string& why) {
    ++mismatches;
    note_error(why);
    if (phase < phases.size() && phases[phase] != nullptr) {
      for (auto& rec : *phases[phase]) {
        if (rec.index == index) rec.ok = false;
      }
    }
  };

  // A seeded sample of written accounts opens at the primary and at the
  // drained replica, with the same record on both.
  if (!stack_->drain_replica(mp::Millis(30000))) {
    fail(phases.size(), 0, "replica did not drain");
    return mismatches;
  }
  std::vector<std::size_t> written;
  for (std::size_t i = 0; i < written_.size(); ++i) {
    if (written_[i]) written.push_back(i);
  }
  Rng rng = Rng(seed_).fork(0x636b);
  for (std::size_t k = 0; k < written.size() && k < kInitCheckSample; ++k) {
    std::swap(written[k], written[k + rng.uniform(written.size() - k)]);
    const Account& a = accounts_[written[k]];
    const auto [phase, index] = last_write_[written[k]];
    const std::string owner_dn =
        pki_->users()[a.owner].proxy.identity().str();
    try {
      auto& primary = stack_->repository();
      auto& replica = *stack_->replica_repository();
      const auto at_primary = primary.open(a.username, a.pass);
      const auto at_replica = replica.open(a.username, a.pass);
      if (at_primary.identity().str() != owner_dn ||
          at_replica.identity().str() != owner_dn) {
        fail(phase, index, "account " + a.username + " opens as another "
                           "identity");
      } else if (primary.record(a.username).value().serialize() !=
                 replica.record(a.username).value().serialize()) {
        fail(phase, index, "replica holds an older record for " +
                               a.username);
      }
    } catch (const std::exception& e) {
      fail(phase, index, "account " + a.username + " does not open: " +
                             e.what());
    }
  }
  return mismatches;
}

}  // namespace perfbench
