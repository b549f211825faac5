package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"rdx/internal/ext"
	"rdx/internal/node"
)

// Security controls from the paper's §5: the control plane acts as the
// remote gatekeeper with a role-based privilege model (confidentiality),
// and enforces runtime limits on deployed extensions (availability).

// Role names a privilege level for CodeFlow principals.
type Role string

// Privilege describes what a role may do.
type Privilege struct {
	// Hooks the role may deploy to; empty means all.
	Hooks []string
	// Kinds the role may deploy; empty means all.
	Kinds []ext.Kind
	// MaxOps caps the validated size of deployable extensions (0 = none).
	MaxOps int
	// CanRollback permits Rollback (and so Quarantine) on the role's
	// hooks. Broadcasts need no extra privilege: every node's stage passes
	// the deploy check above.
	CanRollback bool
}

// AccessPolicy maps roles to privileges. A nil policy permits everything
// (the default, matching a trusted single-operator control plane).
type AccessPolicy struct {
	Roles map[Role]Privilege
}

// ErrDenied is returned when the policy rejects an operation.
var ErrDenied = fmt.Errorf("core: operation denied by access policy")

// check validates a request against the policy: deploying e to hook, or —
// with e nil — rolling hook back.
func (p *AccessPolicy) check(role Role, e *ext.Extension, hook string, info ext.Info) error {
	priv, ok := p.Roles[role]
	switch {
	case !ok:
		return fmt.Errorf("%w: unknown role %q", ErrDenied, role)
	case len(priv.Hooks) > 0 && !slices.Contains(priv.Hooks, hook):
		return fmt.Errorf("%w: role %q may not deploy to hook %q", ErrDenied, role, hook)
	case e == nil && !priv.CanRollback:
		return fmt.Errorf("%w: role %q may not roll back hook %q", ErrDenied, role, hook)
	case e == nil:
		return nil
	case len(priv.Kinds) > 0 && !slices.Contains(priv.Kinds, e.Kind):
		return fmt.Errorf("%w: role %q may not deploy %v extensions", ErrDenied, role, e.Kind)
	case priv.MaxOps > 0 && info.Ops > priv.MaxOps:
		return fmt.Errorf("%w: extension of %d ops exceeds role %q limit %d", ErrDenied, info.Ops, role, priv.MaxOps)
	}
	return nil
}

// SetPolicy installs (or clears, with nil) the control plane's access
// policy. Deployments — direct or staged by the scheduler — and rollbacks
// through CodeFlows bound to a role are checked.
func (cp *ControlPlane) SetPolicy(p *AccessPolicy) {
	cp.mu.Lock()
	cp.policy = p
	cp.mu.Unlock()
}

// Bind assigns a principal role to this CodeFlow; subsequent deployments
// and rollbacks are checked against the control plane's policy.
func (cf *CodeFlow) Bind(role Role) {
	cf.mu.Lock()
	cf.role = role
	cf.mu.Unlock()
}

// maxNameLen bounds extension and hook names at 1024 bytes: a journal
// entry with every string this long stays far under the 64 KiB payload a
// standby decodes, so a standby can fold whatever a publish journals.
const maxNameLen = 1 << 10

// ErrNameTooLong refuses, before any verb, a publish whose extension or
// hook name is longer than maxNameLen.
var ErrNameTooLong = fmt.Errorf("core: name longer than %d bytes", maxNameLen)

// checkNames runs first on every publish path: in authorize, which
// InjectExtension and Stage call, and in DeployProg.
func checkNames(name, hook string) error {
	if len(name) > maxNameLen || len(hook) > maxNameLen {
		return fmt.Errorf("%w: extension name %d bytes, hook name %d bytes", ErrNameTooLong, len(name), len(hook))
	}
	return nil
}

// authorize runs the policy check on this handle for deploying e to hook,
// or for rolling hook back when e is nil, after checkNames.
func (cf *CodeFlow) authorize(e *ext.Extension, hook string) error {
	name := ""
	if e != nil {
		name = e.Name()
	}
	if err := checkNames(name, hook); err != nil {
		return err
	}
	cf.cp.mu.Lock()
	policy := cf.cp.policy
	cf.cp.mu.Unlock()
	if policy == nil {
		return nil
	}
	cf.mu.Lock()
	role := cf.role
	cf.mu.Unlock()
	var info ext.Info
	if e != nil {
		var err error
		if info, err = cf.cp.ValidateCode(e); err != nil {
			return err
		}
	}
	return policy.check(role, e, hook, info)
}

// recordCodeHash fingerprints the code published at blob, for
// VerifyIntegrity to compare against what it reads back.
func (cf *CodeFlow) recordCodeHash(blob uint64, code []byte) {
	sum := sha256.Sum256(code)
	cf.mu.Lock()
	cf.codeHashes[blob] = sum
	cf.mu.Unlock()
}

// SetRuntimeLimit caps the instructions any single execution of the hook's
// extension may spend (0 clears the cap): the §5 availability control,
// written remotely into the hook's fuel word.
func (cf *CodeFlow) SetRuntimeLimit(hook string, maxInsns uint64) error {
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return err
	}
	return cf.Remote.WriteMem(hookAddr+node.HookOffFuel, 8, maxInsns)
}

// RuntimeAborts reads how many executions the hook's runtime limit killed.
func (cf *CodeFlow) RuntimeAborts(hook string) (uint64, error) {
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return 0, err
	}
	return cf.Remote.ReadMem(hookAddr+node.HookOffAborts, 8)
}

// Quarantine combines the §5 recovery controls: revert the hook to its
// previous version and clamp the (presumed faulty) extension's runtime
// budget, returning what was rolled back to.
func (cf *CodeFlow) Quarantine(hook string, maxInsns uint64) (Deployed, error) {
	prev, err := cf.Rollback(hook)
	if err != nil {
		return Deployed{}, err
	}
	if maxInsns > 0 {
		if err := cf.SetRuntimeLimit(hook, maxInsns); err != nil {
			return prev, err
		}
	}
	return prev, nil
}

// auditEntry records one control-plane action for the §5 integrity story.
type auditEntry struct {
	At   time.Time
	Node uint64
	Op   string
	Hook string
	Name string
}

// audit appends to the control plane's audit log.
func (cp *ControlPlane) audit(nodeID uint64, op, hook, name string) {
	cp.mu.Lock()
	cp.auditLog = append(cp.auditLog, auditEntry{
		At: time.Now(), Node: nodeID, Op: op, Hook: hook, Name: name,
	})
	if len(cp.auditLog) > 4096 {
		cp.auditLog = cp.auditLog[len(cp.auditLog)-2048:]
	}
	cp.mu.Unlock()
}

// AuditLen reports how many control-plane actions are in the audit log.
func (cp *ControlPlane) AuditLen() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.auditLog)
}

// IntegrityReport is the outcome of a remote introspection pass.
type IntegrityReport struct {
	Hook     string
	Blob     uint64
	Version  uint64
	CodeLen  uint32
	Expected string // hex SHA-256 recorded at deploy time
	Actual   string // hex SHA-256 of the code read back over RDMA
	Intact   bool
}

// ErrTampered is returned when remote introspection finds the deployed
// code differing from what the control plane published.
var ErrTampered = fmt.Errorf("core: deployed code does not match the published binary")

// VerifyIntegrity is the §5 integrity control ("signature-based remote
// runtime checks / remote memory introspection"): read the hook's live blob
// back over one-sided verbs and compare its hash against the fingerprint
// recorded when the control plane published it. The target node cannot
// observe — let alone interfere with — the check.
func (cf *CodeFlow) VerifyIntegrity(hook string) (IntegrityReport, error) {
	rep := IntegrityReport{Hook: hook}
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return rep, err
	}
	blob, err := cf.Remote.ReadMem(hookAddr+node.HookOffDispatch, 8)
	if err != nil {
		return rep, err
	}
	rep.Blob = blob
	if blob == 0 {
		rep.Intact = true // empty hook: nothing to tamper with
		return rep, nil
	}
	hdr, err := cf.Remote.ReadBytes(blob, node.BlobHdrSize)
	if err != nil {
		return rep, err
	}
	if binary.LittleEndian.Uint32(hdr[node.BlobOffMagic:]) != node.BlobMagic {
		return rep, fmt.Errorf("%w: blob header destroyed", ErrTampered)
	}
	rep.Version = binary.LittleEndian.Uint64(hdr[node.BlobOffVersion:])
	rep.CodeLen = binary.LittleEndian.Uint32(hdr[node.BlobOffLen:])

	code, err := cf.Remote.ReadBytes(blob+node.BlobHdrSize, int(rep.CodeLen))
	if err != nil {
		return rep, err
	}
	sum := sha256.Sum256(code)
	rep.Actual = hex.EncodeToString(sum[:])

	cf.mu.Lock()
	want, ok := cf.codeHashes[blob]
	cf.mu.Unlock()
	if !ok {
		return rep, fmt.Errorf("core: no recorded fingerprint for blob %#x (deployed by another control plane?)", blob)
	}
	rep.Expected = hex.EncodeToString(want[:])
	rep.Intact = want == sum
	if !rep.Intact {
		return rep, ErrTampered
	}
	return rep, nil
}
