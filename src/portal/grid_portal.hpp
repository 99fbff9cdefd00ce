// The Grid Portal (paper §3, §4.3, Figure 3).
//
// A web server that lets any browser drive the Grid:
//   step 1 — the user submits name + pass phrase over HTTPS;
//   step 2 — the portal authenticates to the MyProxy repository with its
//            *own* Grid credentials and presents the user's authentication
//            information;
//   step 3 — the repository delegates a proxy for the user back to the
//            portal, which maps it to the web session.
// From then on the portal acts on the Grid as the user (job submission,
// file transfer) until logout deletes the delegated credential or it
// expires.
//
// Routes:
//   GET  /            login form
//   POST /login       form {username, passphrase[, repository]} -> session
//   GET  /home        identity + credential status
//   POST /submit      form {command} -> job submission at the Grid resource
//   GET  /jobs        job table
//   POST /store       form {name, content} -> file at the Grid resource
//   POST /logout      destroys the session credential
//
// HTTPS connections arrive through the shared TLS front end
// (tls/reactor.hpp): handshake and request deadlines, a connection cap and
// shedding, with each request served on a worker.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "gsi/credential.hpp"
#include "grid/resource_service.hpp"
#include "pki/trust_store.hpp"
#include "portal/http.hpp"
#include "portal/session.hpp"
#include "tls/reactor.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::portal {

struct PortalConfig {
  /// MyProxy repositories this portal may use (§3.3: "a portal should be
  /// able to use multiple systems"). Keyed by a short label offered in the
  /// login form; the first entry is the default.
  std::vector<std::pair<std::string, std::uint16_t>> repositories;

  /// Grid resource the portal submits work to.
  std::uint16_t resource_port = 0;

  /// Lifetime requested for session credentials (§4.3: "a few hours").
  Seconds session_credential_lifetime = Seconds(2 * 3600);

  Seconds session_idle_limit = Seconds(3600);

  std::size_t worker_threads = 2;
};

class GridPortal {
 public:
  /// `credential` is the portal's own Grid identity — what it uses to
  /// authenticate to MyProxy (Figure 3 step 2). Note §5.2: it is held
  /// unencrypted so the portal can run unattended.
  GridPortal(gsi::Credential credential, pki::TrustStore trust_store,
             PortalConfig config);
  ~GridPortal();

  GridPortal(const GridPortal&) = delete;
  GridPortal& operator=(const GridPortal&) = delete;

  void start();
  void stop();
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] SessionManager& sessions() { return sessions_; }

  /// Handle one parsed request (exposed for tests — the HTTPS plumbing is
  /// exercised separately).
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

 private:
  /// The front end's serve callback: one HTTP request, one response.
  void serve(tls::TlsChannel& channel, std::string_view raw_request);

  [[nodiscard]] HttpResponse login_page(std::string_view message = {}) const;
  [[nodiscard]] HttpResponse handle_login(const HttpRequest& request);
  [[nodiscard]] HttpResponse handle_home(const Session& session) const;
  [[nodiscard]] HttpResponse handle_submit(const Session& session,
                                           const HttpRequest& request);
  [[nodiscard]] HttpResponse handle_jobs(const Session& session);
  [[nodiscard]] HttpResponse handle_store(const Session& session,
                                          const HttpRequest& request);
  [[nodiscard]] HttpResponse handle_logout(const HttpRequest& request);

  [[nodiscard]] std::optional<Session> authenticate(
      const HttpRequest& request);

  gsi::Credential credential_;
  pki::TrustStore trust_store_;
  PortalConfig config_;
  tls::TlsContext https_context_;  ///< server-auth-only (§5.2 HTTPS)

  SessionManager sessions_;

  std::optional<net::TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  tls::ReactorStats stats_;
  std::unique_ptr<tls::Reactor> reactor_;
};

/// A minimal scripted "browser" for tests and examples: TLS (server-auth
/// only) + HTTP/1.1 + a cookie jar. Exactly what the paper assumes the user
/// has: "any standard web browser" (§3.1).
class Browser {
 public:
  explicit Browser(std::uint16_t portal_port);

  [[nodiscard]] HttpResponse get(std::string_view target);
  [[nodiscard]] HttpResponse post_form(
      std::string_view target,
      const std::map<std::string, std::string>& fields);

  /// Follow one redirect if the response is 3xx.
  [[nodiscard]] HttpResponse follow(HttpResponse response);

  [[nodiscard]] const std::map<std::string, std::string>& cookies() const {
    return cookies_;
  }

 private:
  [[nodiscard]] HttpResponse roundtrip(HttpRequest request);

  std::uint16_t port_;
  tls::TlsContext context_;
  std::map<std::string, std::string> cookies_;
};

}  // namespace myproxy::portal
