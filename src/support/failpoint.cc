#include "support/failpoint.hh"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <mutex>
#include <string_view>

#include "support/hash.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace yasim::failpoint {

namespace {

constexpr uint64_t kDefaultSeed = 0x5ec5fa1171e5ULL;

/** Every site a fire() call evaluates (see failpoint.hh). */
constexpr std::string_view kCanonicalSites[] = {
    "engine.cancel.token", "engine.cancel.write", "io.open.transient",
    "io.publish.crash",    "io.read.corrupt",     "io.rename.fail",
    "io.sync.fail",        "io.write.crash",      "io.write.short",
    "svc.accept.transient", "svc.cancel.dispatch", "svc.read.corrupt",
};

enum class TriggerKind {
    OneIn,  ///< fire with probability 1/n on every evaluation
    After,  ///< fire exactly once, on the (n+1)-th evaluation
    Always, ///< fire on every evaluation
};

struct Site
{
    TriggerKind kind = TriggerKind::Always;
    uint64_t n = 0;
    /** Private stream so arming one site never shifts another's. */
    Rng rng;
    SiteStats stats;
    bool spent = false; ///< an After trigger that already fired

    Site() : rng(0) {}
};

struct Registry
{
    std::mutex mutex;
    bool envLoaded = false;
    uint64_t seed = kDefaultSeed;
    std::string spec;
    /** std::map: allStats() iterates in sorted order (lint rule D2). */
    std::map<std::string, Site> sites;
};

Registry &
registry()
{
    // Every member access below goes through Registry::mutex.
    static Registry instance; // yasim-lint: guarded(Registry::mutex)
    return instance;
}

/** Per-site Rng seed: schedule seed mixed with the site name. */
uint64_t
siteSeed(uint64_t seed, const std::string &name)
{
    Hasher h;
    h.u64(seed);
    h.str(name);
    return h.digest();
}

/** Parse one "site=trigger" entry into @p reg. Fatal on nonsense. */
void
parseEntry(Registry &reg, const std::string &entry)
{
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size())
        fatal("failpoint entry '%s' is not site=trigger", entry.c_str());
    std::string name = entry.substr(0, eq);
    std::string trigger = entry.substr(eq + 1);

    if (name == "seed") {
        reg.seed = std::strtoull(trigger.c_str(), nullptr, 10);
        return;
    }
    if (std::find(std::begin(kCanonicalSites), std::end(kCanonicalSites),
                  name) == std::end(kCanonicalSites))
        fatal("failpoint schedule names unknown site '%s'", name.c_str());
    if (trigger == "off") {
        reg.sites.erase(name);
        return;
    }

    Site site;
    if (trigger == "always") {
        site.kind = TriggerKind::Always;
    } else if (trigger.compare(0, 3, "1in") == 0) {
        site.kind = TriggerKind::OneIn;
        char *end = nullptr;
        site.n = std::strtoull(trigger.c_str() + 3, &end, 10);
        if (site.n == 0 || *end != '\0')
            fatal("failpoint '%s': bad 1inN trigger '%s'", name.c_str(),
                  trigger.c_str());
    } else if (trigger.compare(0, 5, "after") == 0) {
        site.kind = TriggerKind::After;
        char *end = nullptr;
        site.n = std::strtoull(trigger.c_str() + 5, &end, 10);
        if (*end != '\0')
            fatal("failpoint '%s': bad afterK trigger '%s'",
                  name.c_str(), trigger.c_str());
    } else {
        fatal("failpoint '%s': unknown trigger '%s' (want 1inN, "
              "afterK, always, or off)",
              name.c_str(), trigger.c_str());
    }
    reg.sites[name] = site;
}

/** (Re)build the whole registry from @p spec. Caller holds the mutex. */
void
applySpec(Registry &reg, const std::string &spec)
{
    reg.seed = kDefaultSeed;
    reg.sites.clear();
    reg.spec = spec;

    size_t start = 0;
    while (start < spec.size()) {
        size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        if (comma > start)
            parseEntry(reg, spec.substr(start, comma - start));
        start = comma + 1;
    }
    for (auto &[name, site] : reg.sites)
        site.rng = Rng(siteSeed(reg.seed, name));
}

/** Load $YASIM_FAILPOINTS once, unless configure() already ran. */
void
ensureEnvLoaded(Registry &reg)
{
    if (reg.envLoaded)
        return;
    reg.envLoaded = true;
    const char *env = std::getenv("YASIM_FAILPOINTS");
    if (env && *env)
        applySpec(reg, env);
}

} // namespace

void
configure(const std::string &spec)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.envLoaded = true; // an explicit schedule overrides the env
    applySpec(reg, spec);
}

void
configureFromEnv()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.envLoaded = false;
    applySpec(reg, "");
    ensureEnvLoaded(reg);
}

void
reset()
{
    configure("");
}

bool
anyArmed()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    ensureEnvLoaded(reg);
    for (const auto &[name, site] : reg.sites)
        if (site.kind != TriggerKind::After || !site.spent)
            return true;
    return false;
}

bool
fire(const char *site_name)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    ensureEnvLoaded(reg);
    auto it = reg.sites.find(site_name);
    if (it == reg.sites.end())
        return false;
    Site &site = it->second;
    ++site.stats.evaluations;

    bool fired = false;
    switch (site.kind) {
    case TriggerKind::Always:
        fired = true;
        break;
    case TriggerKind::OneIn:
        fired = site.rng.nextBelow(site.n) == 0;
        break;
    case TriggerKind::After:
        if (!site.spent && site.stats.evaluations > site.n) {
            fired = true;
            site.spent = true;
        }
        break;
    }
    if (fired)
        ++site.stats.fires;
    return fired;
}

SiteStats
stats(const std::string &site)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.sites.find(site);
    return it == reg.sites.end() ? SiteStats{} : it->second.stats;
}

std::vector<std::pair<std::string, SiteStats>>
allStats()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<std::pair<std::string, SiteStats>> out;
    for (const auto &[name, site] : reg.sites)
        out.emplace_back(name, site.stats);
    return out;
}

std::string
activeSpec()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    ensureEnvLoaded(reg);
    return reg.spec;
}

ScopedSchedule::ScopedSchedule(const std::string &spec)
    : saved(activeSpec())
{
    configure(spec);
}

ScopedSchedule::~ScopedSchedule()
{
    configure(saved);
}

} // namespace yasim::failpoint
