#include "engine/service.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace viptree {
namespace engine {

namespace {

class CallbackSink final : public ResponseSink {
 public:
  explicit CallbackSink(std::function<void(const Response&)> callback)
      : callback_(std::move(callback)) {}
  void Deliver(const Response& response) override { callback_(response); }

 private:
  std::function<void(const Response&)> callback_;
};

double MicrosBetween(ServiceClock::time_point from,
                     ServiceClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

std::shared_ptr<ResponseSink> MakeCallbackSink(
    std::function<void(const Response&)> callback) {
  VIPTREE_CHECK_MSG(callback != nullptr, "MakeCallbackSink needs a callback");
  return std::make_shared<CallbackSink>(std::move(callback));
}

RequestDeadline DeadlineAfterMillis(double millis) {
  return ServiceClock::now() +
         std::chrono::duration_cast<ServiceClock::duration>(
             std::chrono::duration<double, std::milli>(millis));
}

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case RequestStatus::kVenueNotFound:
      return "venue-not-found";
    case RequestStatus::kInvalidRequest:
      return "invalid-request";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

// Shared completion state behind a Ticket. Written exactly once, by the
// thread that reaches the request's terminal state.
struct Ticket::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Response response;
};

bool Ticket::Done() const {
  VIPTREE_CHECK_MSG(state_ != nullptr, "Done() on an invalid Ticket");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

const Response& Ticket::Wait() const {
  VIPTREE_CHECK_MSG(state_ != nullptr, "Wait() on an invalid Ticket");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  // `done` is terminal and the response is never rewritten, so the
  // reference stays valid after the lock is released.
  return state_->response;
}

const Response* Ticket::TryGet() const {
  VIPTREE_CHECK_MSG(state_ != nullptr, "TryGet() on an invalid Ticket");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done ? &state_->response : nullptr;
}

Response Ticket::Take() {
  Wait();
  return std::move(state_->response);
}

Service::Service(std::shared_ptr<const VenueBundle> bundle,
                 ServiceOptions options)
    : bundle_(std::move(bundle)),
      options_(options),
      num_threads_(ResolveThreadCount(options.num_threads)) {
  VIPTREE_CHECK_MSG(bundle_ != nullptr,
                    "Service constructed over a null bundle");
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
}

Service::Service(VenueRegistry registry, ServiceOptions options)
    : registry_(std::move(registry)),
      options_(options),
      num_threads_(ResolveThreadCount(options.num_threads)) {
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  // A shared cache cannot span venues: door/node ids are venue-local
  // dense integers, so one cache would alias unrelated keys. Multi-venue
  // services get per-venue caches via ServiceOptions::cache instead.
  VIPTREE_CHECK_MSG(options_.shared_cache == nullptr,
                    "shared_cache is only valid on a single-venue Service");
}

Service::~Service() { Stop(); }

VenueRegistry& Service::registry() {
  VIPTREE_CHECK_MSG(registry_.has_value(),
                    "registry() on a single-venue Service");
  return *registry_;
}

const VenueRegistry& Service::registry() const {
  VIPTREE_CHECK_MSG(registry_.has_value(),
                    "registry() on a single-venue Service");
  return *registry_;
}

void Service::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    VIPTREE_CHECK_MSG(!started_, "Service::Start() called twice");
    VIPTREE_CHECK_MSG(!stopped_, "Service::Start() after Stop()");
    started_ = true;
    start_time_ = ServiceClock::now();
  }
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Ticket Service::Submit(Request request) {
  Item item{std::move(request), ServiceClock::now(),
            std::make_shared<Ticket::State>(), nullptr};
  Ticket ticket;
  ticket.state_ = item.state;
  Admit(&item, 1);
  return ticket;
}

void Service::Submit(Request request, std::shared_ptr<ResponseSink> sink) {
  VIPTREE_CHECK_MSG(sink != nullptr, "streaming Submit needs a non-null sink");
  Item item{std::move(request), ServiceClock::now(), nullptr,
            std::move(sink)};
  Admit(&item, 1);
}

std::vector<Ticket> Service::SubmitBatch(std::vector<Request> requests) {
  const ServiceClock::time_point now = ServiceClock::now();
  std::vector<Item> items;
  items.reserve(requests.size());
  std::vector<Ticket> tickets(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    items.push_back(Item{std::move(requests[i]), now,
                         std::make_shared<Ticket::State>(), nullptr});
    tickets[i].state_ = items.back().state;
  }
  Admit(items.data(), items.size());
  return tickets;
}

void Service::SubmitBatch(std::vector<Request> requests,
                          std::shared_ptr<ResponseSink> sink) {
  VIPTREE_CHECK_MSG(sink != nullptr,
                    "streaming SubmitBatch needs a non-null sink");
  const ServiceClock::time_point now = ServiceClock::now();
  std::vector<Item> items;
  items.reserve(requests.size());
  for (Request& request : requests) {
    items.push_back(Item{std::move(request), now, nullptr, sink});
  }
  Admit(items.data(), items.size());
}

void Service::Admit(Item* items, size_t n) {
  size_t accepted = 0;
  bool was_accepting = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_accepting = accepting_;
    if (accepting_) {
      accepted = std::min(n, options_.queue_capacity - queue_.size());
    }
    for (size_t i = 0; i < accepted; ++i) {
      queue_.push_back(std::move(items[i]));
    }
    pending_ += accepted;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    submitted_ += n;
  }
  // One wake per call. A worker turn takes a whole same-venue run, so
  // other workers are woken only when there is more than one request for
  // them to split.
  if (accepted == 1 || (accepted > 1 && num_threads_ == 1)) {
    queue_cv_.notify_one();
  } else if (accepted > 1) {
    queue_cv_.notify_all();
  }
  if (accepted == n) return;

  std::vector<Item> rejected(std::make_move_iterator(items + accepted),
                             std::make_move_iterator(items + n));
  std::vector<Response> responses(rejected.size());
  for (size_t i = 0; i < rejected.size(); ++i) {
    Response& response = responses[i];
    response.status = RequestStatus::kRejected;
    response.tag = rejected[i].request.tag;
    response.venue_id = rejected[i].request.venue_id;
    response.error = was_accepting
                         ? "request queue is full (capacity " +
                               std::to_string(options_.queue_capacity) + ")"
                         : "service is stopped";
  }
  Finalize(&rejected, &responses);
}

void Service::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  VIPTREE_CHECK_MSG(started_ || stopped_ || pending_ == 0,
                    "Service::Drain() with queued work before Start(): "
                    "nothing would ever drain it");
  drain_cv_.wait(lock, [this] { return pending_ == 0; });
}

void Service::Stop() {
  std::deque<Item> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    accepting_ = false;
    stopping_ = true;
    orphaned.swap(queue_);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (orphaned.empty()) return;

  const ServiceClock::time_point now = ServiceClock::now();
  std::vector<Item> items(std::make_move_iterator(orphaned.begin()),
                          std::make_move_iterator(orphaned.end()));
  std::vector<Response> responses(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    Response& response = responses[i];
    response.status = RequestStatus::kCancelled;
    response.tag = items[i].request.tag;
    response.venue_id = items[i].request.venue_id;
    response.queue_micros = MicrosBetween(items[i].enqueued, now);
    response.error = "service stopped before the request ran";
  }
  Finalize(&items, &responses);
  std::lock_guard<std::mutex> lock(mu_);
  pending_ -= items.size();
  if (pending_ == 0) drain_cv_.notify_all();
}

void Service::WorkerLoop() {
  // This worker's engines, one per venue it has served: the shared
  // immutable bundle plus this thread's private query scratch.
  std::map<std::string, std::unique_ptr<QueryEngine>> engines;
  std::vector<Item> group;
  for (;;) {
    group.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_, and nothing left to do
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Extend with the contiguous run of already-queued queries for the
      // same venue, under the same lock hold. An update (or another
      // venue's request) ends the run, so the per-venue query/update order
      // of the queue is preserved exactly — queries queued before an
      // update still see the old object epoch, queries after it the new
      // one.
      if (group.front().request.kind == RequestKind::kQuery) {
        while (group.size() < kMaxGroupSize && !queue_.empty() &&
               queue_.front().request.kind == RequestKind::kQuery &&
               queue_.front().request.venue_id ==
                   group.front().request.venue_id) {
          group.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
    const size_t count = group.size();
    ServeGroup(&group, &engines);
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_ -= count;
      if (pending_ == 0) drain_cv_.notify_all();
    }
  }
}

void Service::ServeGroup(
    std::vector<Item>* items,
    std::map<std::string, std::unique_ptr<QueryEngine>>* engines) {
  const ServiceClock::time_point start = ServiceClock::now();
  const size_t n = items->size();
  std::vector<Response> responses(n);
  for (size_t i = 0; i < n; ++i) {
    const Request& request = (*items)[i].request;
    responses[i].kind = request.kind;
    responses[i].tag = request.tag;
    responses[i].venue_id = request.venue_id;
    responses[i].queue_micros = MicrosBetween((*items)[i].enqueued, start);
  }

  // Per-item admission: deadline shed at pickup (sharing one `start` —
  // the moment the worker reached the earliest of them, never later for
  // the rest) and per-query validation. Only the runnable remainder runs.
  // The pull guaranteed one venue, so it is resolved once, at the first
  // member that is not shed (an expired group loads nothing).
  QueryEngine* engine = nullptr;
  std::string resolve_error;
  bool resolved = false;
  std::vector<size_t> runnable;
  runnable.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Request& request = (*items)[i].request;
    Response& response = responses[i];
    if (start >= request.deadline) {
      // Shed without running: the answer is already too late to matter.
      response.status = RequestStatus::kDeadlineExceeded;
      response.error = "deadline passed after " +
                       std::to_string(response.queue_micros) +
                       " us in the queue";
      continue;
    }
    if (!resolved) {
      engine = ResolveEngine(request.venue_id, engines, &resolve_error);
      resolved = true;
    }
    if (engine == nullptr) {
      response.status = RequestStatus::kVenueNotFound;
      response.error = resolve_error;
    } else if (request.kind == RequestKind::kUpdateObjects) {
      // Updates run alone (they end a pull). The venue's LiveObjectIndex
      // serializes concurrent updates internally and queries keep reading
      // their pinned snapshots, so nothing here needs the queue lock.
      RunUpdate(request.delta, engine, &response);
    } else if (std::string error;
               !ValidateQuery(request.query, *engine, &error)) {
      // A server fails the request, never the process: unvalidated input
      // (serve-mode lines, remote clients) must not reach the engine's
      // CHECKs or index arrays.
      response.status = RequestStatus::kInvalidRequest;
      response.error = std::move(error);
    } else {
      runnable.push_back(i);
    }
  }

  PlanStats plan;
  if (runnable.size() == 1) {
    Response& response = responses[runnable.front()];
    response.result = engine->Run((*items)[runnable.front()].request.query);
    response.status = RequestStatus::kOk;
  } else if (!runnable.empty()) {
    std::vector<Query> queries;
    queries.reserve(runnable.size());
    for (size_t i : runnable) {
      queries.push_back(std::move((*items)[i].request.query));
    }
    std::vector<Result> results = engine->RunCoalesced(
        Span<const Query>(queries.data(), queries.size()), &plan);
    for (size_t j = 0; j < runnable.size(); ++j) {
      responses[runnable[j]].result = std::move(results[j]);
      responses[runnable[j]].status = RequestStatus::kOk;
    }
  }
  if (!plan.empty()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    plan_stats_.Merge(plan);
  }
  Finalize(items, &responses);
}

size_t Service::WaitAll(const std::vector<Ticket>& tickets) {
  size_t ok = 0;
  for (const Ticket& ticket : tickets) {
    if (!ticket.valid()) continue;
    if (ticket.Wait().ok()) ++ok;
  }
  return ok;
}

void Service::RunUpdate(const ObjectDelta& delta, QueryEngine* engine,
                        Response* response) {
  const Timer timer;
  // ApplyObjectDelta validates before mutating (unknown ids, out-of-range
  // partitions, double-removes, …): a rejected delta publishes nothing,
  // so it maps to kInvalidRequest just like a malformed query.
  std::optional<std::string> error = engine->ApplyObjectDelta(delta);
  response->result.latency_micros = timer.ElapsedMicros();
  if (error.has_value()) {
    response->status = RequestStatus::kInvalidRequest;
    response->error = std::move(*error);
  } else {
    response->status = RequestStatus::kOk;
  }
}

bool Service::ValidateQuery(const Query& query, const QueryEngine& engine,
                            std::string* error) {
  const size_t num_partitions = engine.venue().NumPartitions();
  const auto valid_point = [num_partitions](const IndoorPoint& point) {
    return point.partition >= 0 &&
           static_cast<size_t>(point.partition) < num_partitions;
  };
  if (!valid_point(query.source)) {
    *error = "source partition " + std::to_string(query.source.partition) +
             " is out of range (venue has " +
             std::to_string(num_partitions) + " partitions)";
    return false;
  }
  if ((query.type == QueryType::kDistance ||
       query.type == QueryType::kPath) &&
      !valid_point(query.target)) {
    *error = "target partition " + std::to_string(query.target.partition) +
             " is out of range (venue has " +
             std::to_string(num_partitions) + " partitions)";
    return false;
  }
  if (query.type == QueryType::kBooleanKnn && !engine.has_keywords()) {
    *error = "venue has no keyword index; boolean-knn queries need a "
             "snapshot built with object keywords";
    return false;
  }
  return true;
}

QueryEngine* Service::ResolveEngine(
    const std::string& venue_id,
    std::map<std::string, std::unique_ptr<QueryEngine>>* engines,
    std::string* error) {
  std::shared_ptr<const VenueBundle> bundle;
  if (!registry_.has_value()) {
    if (!venue_id.empty()) {
      *error = "this service serves a single venue; request names '" +
               venue_id + "'";
      return nullptr;
    }
    bundle = bundle_;
  } else {
    bundle = registry_->Acquire(venue_id, error);
    if (bundle == nullptr) return nullptr;
  }
  std::unique_ptr<QueryEngine>& slot = (*engines)[venue_id];
  // Rebuild when the registry re-loaded the venue since this worker last
  // served it (eviction + re-Acquire hands out a fresh bundle); comparing
  // bundle addresses also releases this worker's pin on the evicted one.
  if (slot == nullptr || &slot->bundle() != bundle.get()) {
    std::shared_ptr<DistanceCache> cache = CacheFor(venue_id, bundle);
    slot = std::make_unique<QueryEngine>(std::move(bundle));
    if (cache != nullptr) slot->SetDistanceCache(std::move(cache));
  }
  // Honour the registry's residency cap here too: cached engines pin their
  // bundles, so once this worker's cache outgrows the cap, drop engines
  // whose venue the registry has since evicted — otherwise worker caches
  // would quietly grow toward manifest size and defeat the LRU policy.
  const size_t cap =
      registry_.has_value() ? registry_->max_resident_venues() : 0;
  if (cap != 0 && engines->size() > cap) {
    for (auto it = engines->begin(); it != engines->end();) {
      if (it->first != venue_id && !registry_->IsResident(it->first)) {
        it = engines->erase(it);
      } else {
        ++it;
      }
    }
  }
  return engines->at(venue_id).get();
}

std::shared_ptr<DistanceCache> Service::CacheFor(
    const std::string& venue_id,
    const std::shared_ptr<const VenueBundle>& bundle) {
  if (options_.shared_cache != nullptr) return options_.shared_cache;
  if (!options_.cache.enabled) return nullptr;
  DistanceCacheOptions resolved = options_.cache;
  if (resolved.capacity == 0) {
    resolved.capacity = AdaptiveCacheCapacity(bundle->venue().NumDoors());
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  VenueCache& entry = venue_caches_[venue_id];
  if (entry.cache == nullptr || entry.bundle.lock() != bundle) {
    // First touch, or the registry handed out a fresh bundle instance
    // (eviction + reload): the snapshot file may have changed on disk, so
    // start a clean cache rather than trust file identity. A worker still
    // finishing a group over the old bundle may add a few lookups to the
    // retired cache after this fold; they go uncounted.
    if (entry.cache != nullptr) {
      retired_cache_counters_ += entry.cache->Counters();
    }
    entry.cache = std::make_shared<DistanceCache>(resolved);
    entry.bundle = bundle;
  }
  std::shared_ptr<DistanceCache> cache = entry.cache;
  // The same residency bound ResolveEngine keeps for engines: past the
  // registry's cap, drop the caches of venues it has evicted, or the
  // fleet's cache memory would grow with every venue ever served.
  const size_t cap =
      registry_.has_value() ? registry_->max_resident_venues() : 0;
  if (cap != 0 && venue_caches_.size() > cap) {
    for (auto it = venue_caches_.begin(); it != venue_caches_.end();) {
      if (it->first != venue_id && !registry_->IsResident(it->first)) {
        retired_cache_counters_ += it->second.cache->Counters();
        it = venue_caches_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return cache;
}

void Service::Finalize(std::vector<Item>* items,
                       std::vector<Response>* responses) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const Response& response : *responses) {
      RecordStatsLocked(response);
    }
  }
  // Distinct sinks in first-delivery order; a turn touches very few.
  std::vector<ResponseSink*> sinks;
  for (size_t i = 0; i < items->size(); ++i) {
    Item& item = (*items)[i];
    Response& response = (*responses)[i];
    if (item.sink != nullptr) {
      // Outside every service lock: sinks may Submit, allocate, block.
      item.sink->Deliver(response);
      if (std::find(sinks.begin(), sinks.end(), item.sink.get()) ==
          sinks.end()) {
        sinks.push_back(item.sink.get());
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(item.state->mu);
      item.state->response = std::move(response);
      item.state->done = true;
    }
    item.state->cv.notify_all();
  }
  // `items` still holds every sink, so the raw pointers are live.
  for (ResponseSink* sink : sinks) sink->EndOfTurn();
}

void Service::RecordStatsLocked(const Response& response) {
  switch (response.status) {
    case RequestStatus::kOk:
      if (response.kind == RequestKind::kUpdateObjects) {
        ++updates_;
        ++per_venue_[response.venue_id].updated;
        update_micros_.Record(response.result.latency_micros);
        break;
      }
      ++completed_;
      ++per_venue_[response.venue_id].completed;
      visited_nodes_ += response.result.visited_nodes;
      latency_micros_.Record(response.result.latency_micros);
      break;
    case RequestStatus::kDeadlineExceeded:
      ++expired_;
      ++per_venue_[response.venue_id].expired;
      break;
    case RequestStatus::kVenueNotFound:
    case RequestStatus::kInvalidRequest:
      ++failed_;
      ++per_venue_[response.venue_id].failed;
      break;
    case RequestStatus::kRejected:
      ++rejected_;
      return;  // never queued: no queue-time sample
    case RequestStatus::kCancelled:
      ++cancelled_;
      break;
  }
  queue_micros_.Record(response.queue_micros);
}

size_t Service::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ServiceStats Service::Stats() const {
  ServiceStats stats;
  bool started = false;
  ServiceClock::time_point start_time{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = queue_.size();
    started = started_;
    start_time = start_time_;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats.num_queries = completed_;
  stats.num_threads = num_threads_;
  if (started) {
    stats.wall_millis =
        MicrosBetween(start_time, ServiceClock::now()) / 1000.0;
    if (stats.wall_millis > 0.0) {
      stats.queries_per_second =
          static_cast<double>(completed_) / (stats.wall_millis / 1000.0);
    }
  }
  stats.latency_micros = latency_micros_.Summarize();
  stats.visited_nodes = visited_nodes_;
  stats.submitted = submitted_;
  stats.rejected = rejected_;
  stats.expired = expired_;
  stats.cancelled = cancelled_;
  stats.failed = failed_;
  stats.updates = updates_;
  stats.update_micros = update_micros_.Summarize();
  stats.queue_micros = queue_micros_.Summarize();
  stats.per_venue = per_venue_;
  stats.plan = plan_stats_;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    stats.cache = retired_cache_counters_;
    if (options_.shared_cache != nullptr) {
      stats.cache += options_.shared_cache->Counters();
    }
    for (const auto& [venue, entry] : venue_caches_) {
      (void)venue;
      stats.cache += entry.cache->Counters();
    }
    stats.cache_venues = venue_caches_.size();
  }
  return stats;
}

}  // namespace engine
}  // namespace viptree
