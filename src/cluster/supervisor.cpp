#include "cluster/supervisor.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cluster/port_file.h"
#include "common/panic.h"
#include "net/admin.h"

namespace ido::cluster {

namespace {

std::string
join_path(const std::string& dir, const std::string& name)
{
    return dir + "/" + name;
}

} // namespace

NodeSupervisor::NodeSupervisor(SupervisorConfig cfg) : cfg_(std::move(cfg))
{
    IDO_ASSERT(cfg_.nodes >= 1, "supervisor needs at least one node");
    IDO_ASSERT(!cfg_.serve_bin.empty(), "supervisor needs --serve-bin");
    nodes_.resize(cfg_.nodes);
    for (uint32_t i = 0; i < cfg_.nodes; ++i) {
        const std::string tag = "node" + std::to_string(i);
        nodes_[i].heap = join_path(cfg_.dir, tag + ".heap");
        nodes_[i].port_file = join_path(cfg_.dir, tag + ".port");
        nodes_[i].admin_port_file =
            join_path(cfg_.dir, tag + ".admin_port");
    }
    replica_.heap = join_path(cfg_.dir, "replica0.heap");
    replica_.port_file = join_path(cfg_.dir, "replica0.port");
    replica_.admin_port_file = join_path(cfg_.dir, "replica0.admin_port");
}

NodeSupervisor::~NodeSupervisor()
{
    for (Child& c : nodes_)
        kill_child(c);
    kill_child(replica_);
}

bool
NodeSupervisor::spawn(Child& c, const std::vector<std::string>& more_args)
{
    IDO_ASSERT(c.pid < 0, "spawn over a live child");
    ::unlink(c.port_file.c_str());
    ::unlink(c.admin_port_file.c_str());

    std::vector<std::string> args;
    args.push_back(cfg_.serve_bin);
    args.push_back("--heap=" + c.heap);
    args.push_back("--port=" + std::to_string(c.port)); // 0 on first spawn
    args.push_back("--port-file=" + c.port_file);
    args.push_back("--admin-port-file=" + c.admin_port_file);
    args.push_back("--shards=" + std::to_string(cfg_.shards));
    args.push_back("--heap-bytes=" + std::to_string(cfg_.heap_bytes));
    for (const std::string& a : cfg_.extra_args)
        args.push_back(a);
    for (const std::string& a : more_args)
        args.push_back(a);

    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        return false;
    if (pid == 0) {
        // Child: quiet the recovery chatter unless debugging.
        if (::getenv("IDO_CLUSTER_VERBOSE") == nullptr) {
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0) {
                ::dup2(devnull, STDOUT_FILENO);
                ::dup2(devnull, STDERR_FILENO);
                ::close(devnull);
            }
        }
        ::execv(cfg_.serve_bin.c_str(), argv.data());
        _exit(127); // execv only returns on failure
    }
    c.pid = pid;

    const uint16_t port =
        wait_port_file(c.port_file, cfg_.spawn_timeout_ms);
    if (port == 0 || (c.port != 0 && port != c.port)) {
        kill_child(c);
        return false;
    }
    c.port = port; // pinned: every respawn reuses it
    c.admin_port =
        wait_port_file(c.admin_port_file, cfg_.spawn_timeout_ms);
    if (c.admin_port == 0) {
        kill_child(c);
        return false;
    }
    return true;
}

bool
NodeSupervisor::start_all()
{
    // Replica first: the primary's forwarding connection must have a
    // live address before the primary releases its first ack.
    if (cfg_.replicate && !promoted_) {
        if (!spawn(replica_, cfg_.replica_extra_args))
            return false;
    }
    for (uint32_t i = 0; i < cfg_.nodes; ++i) {
        std::vector<std::string> extra;
        if (cfg_.replicate && !promoted_ && i == 0)
            extra.push_back("--replica-of=127.0.0.1:" +
                            std::to_string(replica_.port));
        if (!spawn(nodes_[i], extra))
            return false;
    }
    return true;
}

std::vector<NodeAddr>
NodeSupervisor::node_addrs() const
{
    std::vector<NodeAddr> out;
    for (const Child& c : nodes_)
        out.push_back({"127.0.0.1", c.port});
    return out;
}

void
NodeSupervisor::kill_child(Child& c)
{
    if (c.pid < 0)
        return;
    ::kill(c.pid, SIGKILL);
    int status = 0;
    ::waitpid(c.pid, &status, 0);
    c.pid = -1;
}

void
NodeSupervisor::kill_node(uint32_t node)
{
    IDO_ASSERT(node < nodes_.size(), "node id out of range");
    kill_child(nodes_[node]);
}

void
NodeSupervisor::kill_replica()
{
    kill_child(replica_);
}

bool
NodeSupervisor::alive(Child& c)
{
    if (c.pid < 0)
        return false;
    int status = 0;
    const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
    if (r == c.pid) { // exited on its own: reap happened here
        c.pid = -1;
        return false;
    }
    return r == 0;
}

bool
NodeSupervisor::node_alive(uint32_t node)
{
    return alive(nodes_[node]);
}

bool
NodeSupervisor::replica_alive()
{
    return alive(replica_);
}

bool
NodeSupervisor::node_healthy(uint32_t node)
{
    Child& c = nodes_[node];
    if (!alive(c))
        return false;
    std::string body;
    return net::admin_http_get(c.admin_port, "/healthz", &body, 2000) &&
           body == "ok\n";
}

bool
NodeSupervisor::restart_node(uint32_t node)
{
    IDO_ASSERT(node < nodes_.size(), "node id out of range");
    Child& c = nodes_[node];
    kill_child(c); // idempotent if already dead
    std::vector<std::string> extra;
    if (cfg_.replicate && !promoted_ && node == 0)
        extra.push_back("--replica-of=127.0.0.1:" +
                        std::to_string(replica_.port));
    return spawn(c, extra);
}

bool
NodeSupervisor::restart_replica()
{
    if (!cfg_.replicate || promoted_)
        return false;
    kill_child(replica_);
    return spawn(replica_, cfg_.replica_extra_args);
}

bool
NodeSupervisor::promote_replica()
{
    if (!cfg_.replicate || promoted_)
        return false;
    kill_child(nodes_[0]);
    kill_child(replica_);
    // The replica's heap holds every mutation the primary ever acked
    // (the ack rule: no release before the replica's durable ack), so
    // serving it from node 0's pinned port restores the slice.  The
    // pair is unreplicated from here on.
    promoted_ = true;
    nodes_[0].heap = replica_.heap;
    return spawn(nodes_[0], {});
}

} // namespace ido::cluster
