package main

import (
	"reflect"
	"testing"
)

func TestSameSeedSameMix(t *testing.T) {
	a := serviceMix(7, 3, 2, serviceRound)
	b := serviceMix(7, 3, 2, serviceRound)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 round 3 generated two different mixes")
	}
	if reflect.DeepEqual(a, serviceMix(8, 3, 2, serviceRound)) {
		t.Error("seeds 7 and 8 generated the same mix")
	}
	if reflect.DeepEqual(a, serviceMix(7, 4, 2, serviceRound)) {
		t.Error("rounds 3 and 4 generated the same mix")
	}
	if !reflect.DeepEqual(algOrder(7), algOrder(7)) || reflect.DeepEqual(algOrder(7), algOrder(8)) {
		t.Error("algorithm order does not follow the seed")
	}
}

func TestMixCountsAndResubmitTargets(t *testing.T) {
	n := mixCounts{small: 30, full: 5, resubmit: 6}
	for _, ops := range serviceMix(1, 0, 2, n) {
		count := map[string]int{}
		for i, o := range ops {
			count[o.Kind]++
			if o.Kind != opResubmit {
				continue
			}
			if o.Target >= i || ops[o.Target].Kind == opResubmit || ops[o.Target].Key != o.Key {
				t.Errorf("resubmit %d targets op %d (%s %s)", i, o.Target, ops[o.Target].Kind, ops[o.Target].Key)
			}
		}
		if count[opSmall] != n.small || count[opFull] != n.full || count[opResubmit] != n.resubmit {
			t.Errorf("client mix counts %v, want %+v", count, n)
		}
	}
}
