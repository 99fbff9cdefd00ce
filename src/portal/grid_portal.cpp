#include "portal/grid_portal.hpp"

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"

namespace myproxy::portal {

namespace {

constexpr std::string_view kLogComponent = "portal";

std::string page(std::string_view title, std::string_view body) {
  return fmt::format(
      "<html><head><title>{}</title></head><body>"
      "<h1>{}</h1>{}"
      "<hr><small>MyProxy Grid Portal (HPDC 2001 reproduction)</small>"
      "</body></html>",
      title, title, body);
}

}  // namespace

GridPortal::GridPortal(gsi::Credential credential,
                       pki::TrustStore trust_store, PortalConfig config)
    : credential_(std::move(credential)),
      trust_store_(std::move(trust_store)),
      config_(std::move(config)),
      https_context_(
          tls::TlsContext::make(credential_, tls::PeerAuth::kNone)),
      sessions_(config_.session_idle_limit) {
  if (config_.repositories.empty()) {
    throw ConfigError("portal requires at least one MyProxy repository");
  }
}

GridPortal::~GridPortal() { stop(); }

void GridPortal::start() {
  listener_.emplace(net::TcpListener::bind(0));
  port_ = listener_->port();
  pool_ = std::make_unique<ThreadPool>(config_.worker_threads,
                                       /*max_queue=*/128);
  tls::ReactorOptions front_end;
  front_end.busy_reply = HttpResponse::error(503, "Service Unavailable",
                                             "portal busy, try again\n")
                             .serialize();
  reactor_ = std::make_unique<tls::Reactor>(
      https_context_, *listener_, *pool_, stats_, std::move(front_end),
      [this](tls::TlsChannel& channel, std::string_view raw_request) {
        serve(channel, raw_request);
      });
  reactor_->start();
  log::info(kLogComponent, "portal listening on port {} as '{}'", port_,
            credential_.identity().str());
}

void GridPortal::stop() {
  if (reactor_ != nullptr) reactor_->stop();
  pool_.reset();
  if (listener_.has_value()) listener_->close();
}

void GridPortal::serve(tls::TlsChannel& channel,
                       std::string_view raw_request) {
  // §5.2: "The portal web server must currently be configured to only
  // allow HTTP connections secured with SSL encryption (HTTPS)" — the
  // channel is the front end's server-auth-only TLS.
  const HttpRequest request = parse_request(raw_request);
  HttpResponse response;
  try {
    response = handle(request);
  } catch (const Error& e) {
    log::warn(kLogComponent, "request {} {} failed: {}", request.method,
              request.target, e.what());
    response = HttpResponse::error(500, "Internal Server Error", e.what());
  }
  channel.send(response.serialize());
}

HttpResponse GridPortal::handle(const HttpRequest& request) {
  if (request.method == "GET" && request.target == "/") {
    return login_page();
  }
  if (request.method == "POST" && request.target == "/login") {
    return handle_login(request);
  }
  if (request.method == "POST" && request.target == "/logout") {
    return handle_logout(request);
  }

  // Everything below requires a live session.
  const auto session = authenticate(request);
  if (!session.has_value()) {
    return login_page("Please log in (session missing or expired).");
  }
  if (request.method == "GET" && request.target == "/home") {
    return handle_home(*session);
  }
  if (request.method == "POST" && request.target == "/submit") {
    return handle_submit(*session, request);
  }
  if (request.method == "GET" && request.target == "/jobs") {
    return handle_jobs(*session);
  }
  if (request.method == "POST" && request.target == "/store") {
    return handle_store(*session, request);
  }
  return HttpResponse::error(404, "Not Found", request.target);
}

std::optional<Session> GridPortal::authenticate(const HttpRequest& request) {
  const auto cookie = request.cookie(kSessionCookie);
  if (!cookie.has_value()) return std::nullopt;
  return sessions_.find(*cookie);
}

HttpResponse GridPortal::login_page(std::string_view message) const {
  std::string repositories;
  for (const auto& [label, port] : config_.repositories) {
    repositories += fmt::format(
        "<option value=\"{}\">{} (port {})</option>", html_escape(label),
        html_escape(label), port);
  }
  return HttpResponse::html(page(
      "Grid Portal Login",
      fmt::format(
          "{}"
          "<form method=\"post\" action=\"/login\">"
          "User name: <input name=\"username\"><br>"
          "Pass phrase: <input type=\"password\" name=\"passphrase\"><br>"
          "Repository: <select name=\"repository\">{}</select><br>"
          "<input type=\"submit\" value=\"Log in\">"
          "</form>",
          message.empty()
              ? ""
              : fmt::format("<p><b>{}</b></p>", html_escape(message)),
          repositories)));
}

HttpResponse GridPortal::handle_login(const HttpRequest& request) {
  const auto form = request.form();
  const auto username = form.find("username");
  const auto passphrase = form.find("passphrase");
  if (username == form.end() || passphrase == form.end() ||
      username->second.empty()) {
    return login_page("User name and pass phrase are required.");
  }

  // Pick the repository (§3.3: "The user might also specify a MyProxy
  // repository for the portal to use").
  std::uint16_t repository_port = config_.repositories.front().second;
  const auto repository = form.find("repository");
  if (repository != form.end()) {
    for (const auto& [label, port] : config_.repositories) {
      if (label == repository->second) {
        repository_port = port;
        break;
      }
    }
  }

  try {
    // Figure 3 steps 2-3: the portal authenticates with its own credential
    // and presents the user's authentication information.
    client::MyProxyClient myproxy(credential_, trust_store_,
                                  repository_port);
    client::GetOptions options;
    options.lifetime = config_.session_credential_lifetime;
    gsi::Credential delegated =
        myproxy.get(username->second, passphrase->second, options);

    const std::string session_id =
        sessions_.create(username->second, std::move(delegated));
    HttpResponse response = HttpResponse::redirect("/home");
    response.headers["set-cookie"] = fmt::format(
        "{}={}; HttpOnly; Secure", kSessionCookie, session_id);
    return response;
  } catch (const Error& e) {
    log::warn(kLogComponent, "login failed for '{}': {}", username->second,
              e.what());
    return login_page("Login failed: the repository refused the request.");
  }
}

HttpResponse GridPortal::handle_home(const Session& session) const {
  const auto& credential = session.credential;
  return HttpResponse::html(page(
      "Grid Portal",
      fmt::format(
          "<p>Logged in as <b>{}</b></p>"
          "<p>Grid identity: <code>{}</code></p>"
          "<p>Credential expires: {} (in {})</p>"
          "<form method=\"post\" action=\"/submit\">"
          "Command: <input name=\"command\">"
          "<input type=\"submit\" value=\"Submit job\"></form>"
          "<form method=\"post\" action=\"/store\">"
          "File: <input name=\"name\"> Content: <input name=\"content\">"
          "<input type=\"submit\" value=\"Store file\"></form>"
          "<p><a href=\"/jobs\">Jobs</a></p>"
          "<form method=\"post\" action=\"/logout\">"
          "<input type=\"submit\" value=\"Log out\"></form>",
          html_escape(session.username),
          html_escape(credential.identity().str()),
          format_utc(credential.not_after()),
          format_duration(credential.remaining_lifetime()))));
}

HttpResponse GridPortal::handle_submit(const Session& session,
                                       const HttpRequest& request) {
  const auto form = request.form();
  const auto command = form.find("command");
  if (command == form.end() || command->second.empty()) {
    return HttpResponse::error(400, "Bad Request", "command is required");
  }
  // "The portal then can securely access the Grid using standard Grid
  // applications as the user normally would" — with the session credential.
  grid::ResourceClient resource(session.credential, trust_store_,
                                config_.resource_port);
  const std::string job_id = resource.submit_job(command->second);
  sessions_.record_job(session.id, job_id);
  log::info(kLogComponent, "user '{}' submitted {} ('{}')", session.username,
            job_id, command->second);
  return HttpResponse::html(
      page("Job submitted",
           fmt::format("<p>Job id: <code>{}</code></p>"
                       "<p><a href=\"/jobs\">Jobs</a> | "
                       "<a href=\"/home\">Home</a></p>",
                       html_escape(job_id))));
}

HttpResponse GridPortal::handle_jobs(const Session& session) {
  grid::ResourceClient resource(session.credential, trust_store_,
                                config_.resource_port);
  std::string rows;
  for (const auto& job_id : session.job_ids) {
    std::string state = "unknown";
    std::string expires = "-";
    try {
      const auto status = resource.job_status(job_id);
      state = status.state == grid::JobState::kRunning       ? "running"
              : status.state == grid::JobState::kCompleted   ? "completed"
                                                             : "credential-expired";
      expires = format_utc(status.credential_expires);
    } catch (const Error&) {
      state = "unavailable";
    }
    rows += fmt::format(
        "<tr><td><code>{}</code></td><td>{}</td><td>{}</td></tr>",
        html_escape(job_id), html_escape(state), html_escape(expires));
  }
  return HttpResponse::html(page(
      "Jobs",
      fmt::format("<p>Jobs run as local user <code>{}</code>.</p>"
                  "<table border=\"1\"><tr><th>job</th><th>state</th>"
                  "<th>credential expires</th></tr>{}</table>"
                  "<p><a href=\"/home\">Home</a></p>",
                  html_escape(resource.whoami()), rows)));
}

HttpResponse GridPortal::handle_store(const Session& session,
                                      const HttpRequest& request) {
  const auto form = request.form();
  const auto name = form.find("name");
  const auto content = form.find("content");
  if (name == form.end() || content == form.end() || name->second.empty()) {
    return HttpResponse::error(400, "Bad Request",
                               "name and content are required");
  }
  grid::ResourceClient resource(session.credential, trust_store_,
                                config_.resource_port);
  resource.store_file(name->second, content->second);
  return HttpResponse::html(
      page("File stored", fmt::format("<p>Stored <code>{}</code>.</p>"
                                      "<p><a href=\"/home\">Home</a></p>",
                                      html_escape(name->second))));
}

HttpResponse GridPortal::handle_logout(const HttpRequest& request) {
  const auto cookie = request.cookie(kSessionCookie);
  if (cookie.has_value()) sessions_.destroy(*cookie);
  HttpResponse response = HttpResponse::redirect("/");
  // Clear the cookie.
  response.headers["set-cookie"] =
      fmt::format("{}=deleted; Max-Age=0", kSessionCookie);
  return response;
}

// --- Browser -----------------------------------------------------------------

Browser::Browser(std::uint16_t portal_port)
    : port_(portal_port), context_(tls::TlsContext::anonymous_client()) {}

HttpResponse Browser::roundtrip(HttpRequest request) {
  if (!cookies_.empty()) {
    std::string header;
    for (const auto& [name, value] : cookies_) {
      if (!header.empty()) header += "; ";
      header += fmt::format("{}={}", name, value);
    }
    request.headers["cookie"] = header;
  }
  request.headers["host"] = fmt::format("127.0.0.1:{}", port_);

  auto channel =
      tls::TlsChannel::connect(context_, net::tcp_connect(port_));
  channel->send(request.serialize());
  HttpResponse response = parse_response(channel->receive());

  const auto set_cookie = response.headers.find("set-cookie");
  if (set_cookie != response.headers.end()) {
    const std::string& raw = set_cookie->second;
    const std::size_t eq = raw.find('=');
    const std::size_t semi = raw.find(';');
    if (eq != std::string::npos) {
      const std::string name = raw.substr(0, eq);
      const std::string value =
          raw.substr(eq + 1, semi == std::string::npos ? std::string::npos
                                                       : semi - eq - 1);
      if (value == "deleted") {
        cookies_.erase(name);
      } else {
        cookies_[name] = value;
      }
    }
  }
  return response;
}

HttpResponse Browser::get(std::string_view target) {
  HttpRequest request;
  request.method = "GET";
  request.target = std::string(target);
  request.version = "HTTP/1.1";
  return roundtrip(std::move(request));
}

HttpResponse Browser::post_form(
    std::string_view target,
    const std::map<std::string, std::string>& fields) {
  HttpRequest request;
  request.method = "POST";
  request.target = std::string(target);
  request.version = "HTTP/1.1";
  request.headers["content-type"] = "application/x-www-form-urlencoded";
  std::string body;
  for (const auto& [name, value] : fields) {
    if (!body.empty()) body += '&';
    body += fmt::format("{}={}", url_encode(name), url_encode(value));
  }
  request.body = std::move(body);
  return roundtrip(std::move(request));
}

HttpResponse Browser::follow(HttpResponse response) {
  if (response.status >= 300 && response.status < 400) {
    const auto location = response.headers.find("location");
    if (location != response.headers.end()) {
      return get(location->second);
    }
  }
  return response;
}

}  // namespace myproxy::portal
