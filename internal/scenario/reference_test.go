package scenario_test

import (
	"testing"

	"selfemerge/internal/core"
	"selfemerge/internal/mc"
	"selfemerge/internal/scenario"
)

// TestReferenceShareModelResolution: key-share configs default their
// matched references to the live-faithful model, explicit pins win, and the
// other schemes stay on the engine default.
func TestReferenceShareModelResolution(t *testing.T) {
	share := scenario.Config{
		Nodes: 100, MaliciousRate: 0.1,
		Plan: core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 4, ShareM: []int{2, 2}},
	}
	release, deliver := share.References()
	if release.Env.ShareModel != mc.ShareModelLive || deliver.Env.ShareModel != mc.ShareModelLive {
		t.Errorf("key-share references default to %v/%v, want live/live",
			release.Env.ShareModel, deliver.Env.ShareModel)
	}

	share.ShareModel = mc.ShareModelQuota
	release, _ = share.References()
	if release.Env.ShareModel != mc.ShareModelQuota {
		t.Errorf("pinned quota model resolved to %v", release.Env.ShareModel)
	}

	joint := scenario.Config{
		Nodes: 100, MaliciousRate: 0.1,
		Plan: core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2},
	}
	release, _ = joint.References()
	if release.Env.ShareModel != mc.ShareModelDefault {
		t.Errorf("joint reference carries share model %v", release.Env.ShareModel)
	}
}

// TestReferenceKeyReflectsShareModel: pinning a different share model must
// change the reference cache key, or pinned and unpinned sweeps would share
// cached estimates.
func TestReferenceKeyReflectsShareModel(t *testing.T) {
	cfg := scenario.Config{
		Nodes: 100, MaliciousRate: 0.1,
		Plan: core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 4, ShareM: []int{2, 2}},
	}
	liveRef, _ := cfg.References()
	cfg.ShareModel = mc.ShareModelQuota
	quotaRef, _ := cfg.References()
	if liveRef.Key() == quotaRef.Key() {
		t.Errorf("share models live and quota share a cache key: %s", liveRef.Key())
	}
	// Same model, same key: the cache must still coalesce equal references.
	again, _ := cfg.References()
	if quotaRef.Key() != again.Key() {
		t.Errorf("equal references produced distinct keys:\n%s\n%s", quotaRef.Key(), again.Key())
	}
}
