package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rdx/internal/controlha"
	"rdx/internal/core"
)

// TestShardRowUnreplayable: a shard whose journal cannot be replayed (the
// ring wrapped, or its bytes are corrupt) has no State. Its row reports the
// replay error and "-" for deployments instead of reading the missing state.
func TestShardRowUnreplayable(t *testing.T) {
	st := &controlha.HAStatus{
		Owner: 0x7, Epoch: 3, RingHwm: 4096, RingCap: 4096,
		ReplayErr: fmt.Errorf("controlha: ring overrun"),
	}
	row := shardRow(1, "127.0.0.1:7801", st)
	want := []string{"1", "127.0.0.1:7801", "held by 0x7", "3", "4096/4096",
		"unreplayable: controlha: ring overrun", "-"}
	if !reflect.DeepEqual(row, want) {
		t.Fatalf("row = %q\nwant  %q", row, want)
	}
}

// TestShardRowReplayed: a replayed journal reports its entries, sequence,
// deployments and open intents.
func TestShardRowReplayed(t *testing.T) {
	state := controlha.NewState()
	state.Entries, state.LastSeq = 5, 5
	state.Versions[controlha.Key{Node: "0x1", Hook: "ingress"}] = core.DeployedVersion{Version: 1}
	state.Open = []controlha.Intent{{Node: "0x1", Hook: "kv", Version: 2}}
	row := shardRow(0, "127.0.0.1:7800", &controlha.HAStatus{RingHwm: 128, RingCap: 4096, State: state})
	if got := strings.Join(row, "|"); got != "0|127.0.0.1:7800|vacant|0|128/4096|5 entries, seq 5|1 (+1 open intents)" {
		t.Fatalf("row = %s", got)
	}
}
