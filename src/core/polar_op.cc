#include "core/polar_op.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace ftoa {

namespace {

/// FIFO of objects waiting at a guide node, with O(1) push/pop via a head
/// cursor (no element erasure).
struct WaitQueue {
  std::vector<int32_t> items;
  size_t head = 0;

  bool empty() const { return head >= items.size(); }
  void Push(int32_t id) { items.push_back(id); }
  int32_t Pop() { return items[head++]; }
  int32_t Peek() const { return items[head]; }
};

/// One POLAR-OP run: the per-node wait queues and the round-robin cursors
/// of the old per-run loop, hoisted into session state.
class PolarOpSession final : public AssignmentSessionBase {
 public:
  PolarOpSession(const Instance& instance,
                 std::shared_ptr<const OfflineGuide> guide,
                 PolarOptions options)
      : AssignmentSessionBase(instance),
        guide_(std::move(guide)),
        options_(options),
        // Unmatched objects waiting at each guide node ("associated"
        // objects that have not yet been paired).
        waiting_at_worker_node_(
            static_cast<size_t>(guide_->num_worker_nodes())),
        waiting_at_task_node_(static_cast<size_t>(guide_->num_task_nodes())),
        // Round-robin cursor per type: nodes are reused, so arrivals cycle
        // over all nodes of the type (line 3: "a node of o's type").
        worker_type_cursor_(
            static_cast<size_t>(guide_->spacetime().num_types()), 0),
        task_type_cursor_(
            static_cast<size_t>(guide_->spacetime().num_types()), 0) {}

  void OnWorker(WorkerId worker, double time) override {
    const OfflineGuide& guide = *guide_;
    const SpacetimeSpec& st = guide.spacetime();
    const Worker& w = instance().worker(worker);
    const TypeId type = st.TypeOf(w.location, w.start);
    const auto& nodes = guide.WorkerNodesOfType(type);
    if (nodes.empty()) {
      // No node of this type exists in the guide: the object is ignored.
      ++trace_.ignored_workers;
      return;
    }
    uint32_t& cursor = worker_type_cursor_[static_cast<size_t>(type)];
    const GuideNodeId node =
        nodes[static_cast<size_t>(cursor++ % nodes.size())];
    const GuideNodeId partner =
        guide.worker_nodes()[static_cast<size_t>(node)].partner;
    if (partner == -1) return;  // Stays in place; never matched by Ĝf.
    WaitQueue& queue = waiting_at_task_node_[static_cast<size_t>(partner)];
    bool matched = false;
    while (!queue.empty()) {
      const int32_t task_id = queue.Peek();
      const Task& r = instance().task(task_id);
      if (options_.check_liveness &&
          !CanServe(w, r, instance().velocity(),
                    FeasibilityPolicy::kDispatchAtWorkerStart)) {
        queue.Pop();  // Expired waiting task; discard and keep looking.
        continue;
      }
      queue.Pop();
      assignment_.Add(w.id, r.id, time);
      matched = true;
      break;
    }
    if (!matched) {
      waiting_at_worker_node_[static_cast<size_t>(node)].Push(w.id);
      if (collect_dispatches()) {
        const TypeId target_type =
            guide.task_nodes()[static_cast<size_t>(partner)].type;
        trace_.dispatches.push_back(DispatchRecord{
            w.id, st.RepresentativeLocation(target_type), time});
      }
    }
  }

  void OnTask(TaskId task, double time) override {
    const OfflineGuide& guide = *guide_;
    const SpacetimeSpec& st = guide.spacetime();
    const Task& r = instance().task(task);
    const TypeId type = st.TypeOf(r.location, r.start);
    const auto& nodes = guide.TaskNodesOfType(type);
    if (nodes.empty()) {
      ++trace_.ignored_tasks;
      return;
    }
    uint32_t& cursor = task_type_cursor_[static_cast<size_t>(type)];
    const GuideNodeId node =
        nodes[static_cast<size_t>(cursor++ % nodes.size())];
    const GuideNodeId partner =
        guide.task_nodes()[static_cast<size_t>(node)].partner;
    if (partner == -1) return;  // Waits until its deadline; never matched.
    WaitQueue& queue = waiting_at_worker_node_[static_cast<size_t>(partner)];
    bool matched = false;
    while (!queue.empty()) {
      const int32_t worker_id = queue.Peek();
      const Worker& w = instance().worker(worker_id);
      if (options_.check_liveness &&
          !CanServe(w, r, instance().velocity(),
                    FeasibilityPolicy::kDispatchAtWorkerStart)) {
        queue.Pop();  // The waiting worker has left the platform.
        continue;
      }
      queue.Pop();
      assignment_.Add(w.id, r.id, time);
      matched = true;
      break;
    }
    if (!matched) {
      waiting_at_task_node_[static_cast<size_t>(node)].Push(r.id);
    }
  }

 private:
  std::shared_ptr<const OfflineGuide> guide_;
  PolarOptions options_;
  std::vector<WaitQueue> waiting_at_worker_node_;
  std::vector<WaitQueue> waiting_at_task_node_;
  std::vector<uint32_t> worker_type_cursor_;
  std::vector<uint32_t> task_type_cursor_;
};

}  // namespace

PolarOp::PolarOp(std::shared_ptr<const OfflineGuide> guide,
                 PolarOptions options)
    : guide_(std::move(guide)), options_(options) {}

std::unique_ptr<AssignmentSession> PolarOp::StartSession(
    const Instance& instance) {
  return std::make_unique<PolarOpSession>(instance, guide_, options_);
}

}  // namespace ftoa
