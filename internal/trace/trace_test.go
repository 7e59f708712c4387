package trace

import (
	"strings"
	"testing"
)

func TestSuffixClone(t *testing.T) {
	s := &Suffix{
		Steps:    []Step{{Tid: 0, Block: 1}},
		EndPC:    9,
		Inputs:   []InputRec{{Tid: 0, Channel: 2, Value: 5}},
		StartPCs: map[int]int{0: 4},
	}
	c := s.Clone()
	c.Steps[0].Block = 99
	c.Inputs[0].Value = 99
	c.StartPCs[0] = 99
	if s.Steps[0].Block != 1 || s.Inputs[0].Value != 5 || s.StartPCs[0] != 4 {
		t.Error("clone shares state")
	}
	if c.Len() != 1 || s.Len() != 1 {
		t.Error("lengths wrong")
	}
}

func TestSuffixString(t *testing.T) {
	s := &Suffix{Steps: []Step{{Tid: 1, Block: 2}}, EndPC: 5}
	str := s.String()
	if !strings.Contains(str, "end pc 5") || !strings.Contains(str, "t1:b2") {
		t.Errorf("String = %q", str)
	}
}
