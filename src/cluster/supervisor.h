/**
 * @file
 * NodeSupervisor: spawns and babysits the real `ido_serve` processes
 * that make up a cluster.
 *
 * Each node is a fork/execv'd ido_serve on its own file-backed heap,
 * plus (optionally) a replica: a second stock ido_serve on its own
 * heap, spawned *first* so the primary's --replica-of address is live
 * before the primary takes its first write.  Readiness is the atomic
 * port-file handshake (port_file.h); liveness is waitpid(WNOHANG) plus
 * a GET /healthz against the node's admin endpoint.
 *
 * Ports are remembered from the first spawn and pinned with --port=
 * on every respawn, so a crashed node returns at the *same* address --
 * the router's reconnect loop and a primary's --replica-of both depend
 * on addresses being stable across crashes.
 *
 * A respawn reattaches the node's heap; ido_serve detects the unclean
 * shutdown and runs full iDO recovery (resume interrupted FASEs) before
 * binding, so "restart_node returned true" implies the node's acked
 * writes are back online.  promote_replica() instead restarts the
 * *replica's* heap as a standalone primary on the primary's old port --
 * the failover path when the primary's heap is gone for good.
 */
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "cluster/cluster_client.h" // NodeAddr

namespace ido::cluster {

struct SupervisorConfig
{
    std::string serve_bin;  ///< path to the ido_serve binary
    std::string dir;        ///< heaps + port files live here
    uint32_t nodes = 1;     ///< primaries to spawn
    bool replicate = false; ///< give node 0 a replica pair
    uint32_t shards = 2;
    uint64_t heap_bytes = 32u << 20;
    uint32_t spawn_timeout_ms = 30000; ///< port-file wait per process
    /// Extra flags appended verbatim to every ido_serve (tests inject
    /// --publish-delay-ms through this).
    std::vector<std::string> extra_args;
    /// Extra flags for the *replica* process only (the ack-ordering
    /// proof delays just the replica's reply release).
    std::vector<std::string> replica_extra_args;
};

class NodeSupervisor
{
  public:
    explicit NodeSupervisor(SupervisorConfig cfg);

    /** Kills every child still running (SIGKILL; no heap cleanup). */
    ~NodeSupervisor();

    NodeSupervisor(const NodeSupervisor&) = delete;
    NodeSupervisor& operator=(const NodeSupervisor&) = delete;

    /**
     * Spawn all nodes (replica first when replicated) and wait for
     * every port file.  False if any child failed to come up.
     */
    bool start_all();

    uint32_t node_count() const { return cfg_.nodes; }
    bool replicated() const { return cfg_.replicate; }

    /** Client-facing addresses, index-aligned with ring node ids. */
    std::vector<NodeAddr> node_addrs() const;

    pid_t node_pid(uint32_t node) const { return nodes_[node].pid; }
    pid_t replica_pid() const { return replica_.pid; }
    uint16_t node_port(uint32_t node) const { return nodes_[node].port; }
    uint16_t node_admin_port(uint32_t node) const
    {
        return nodes_[node].admin_port;
    }
    uint16_t replica_port() const { return replica_.port; }
    std::string node_heap(uint32_t node) const { return nodes_[node].heap; }
    std::string replica_heap() const { return replica_.heap; }

    /** SIGKILL + reap.  The heap stays dirty for recovery. */
    void kill_node(uint32_t node);
    void kill_replica();

    /** True iff the child is still alive (waitpid WNOHANG). */
    bool node_alive(uint32_t node);
    bool replica_alive();

    /** GET /healthz over the node's admin endpoint. */
    bool node_healthy(uint32_t node);

    /**
     * Respawn a dead node on its original port and heap (iDO recovery
     * runs inside ido_serve); waits for the port file.  When the node
     * is a replicated primary its --replica-of is re-applied.
     */
    bool restart_node(uint32_t node);
    bool restart_replica();

    /**
     * Failover: restart node 0's slice *from the replica's heap* as a
     * standalone primary on node 0's port.  Call after kill_node(0)
     * (and kill_replica()) when the primary heap is declared lost.
     * After promotion the pair is degraded to an unreplicated node.
     */
    bool promote_replica();

  private:
    struct Child
    {
        pid_t pid = -1;
        uint16_t port = 0;       ///< pinned after first spawn
        uint16_t admin_port = 0; ///< re-read after each spawn
        std::string heap;
        std::string port_file;
        std::string admin_port_file;
    };

    /** fork/execv one ido_serve; fills pid + ports.  False on fail. */
    bool spawn(Child& c, const std::vector<std::string>& more_args);
    bool alive(Child& c);
    void kill_child(Child& c);

    SupervisorConfig cfg_;
    std::vector<Child> nodes_;
    Child replica_; ///< pid == -1 when not replicated / demoted
    bool promoted_ = false;
};

} // namespace ido::cluster
