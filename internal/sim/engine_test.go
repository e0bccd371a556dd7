package sim

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleRunOrder(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestTieBreakIsSchedulingOrder(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(5, func() { fired++ })
	e.RunUntil(3)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3 (deadline)", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run()
	if fired != 2 || e.Now() != 5 {
		t.Errorf("after Run: fired=%d now=%v", fired, e.Now())
	}

	// A queue that drains before the deadline still leaves the clock at the
	// deadline, not at the last event's time.
	var d Engine
	d.Schedule(1, func() {})
	if now := d.RunUntil(3); now != 3 || d.Now() != 3 || d.Pending() != 0 {
		t.Errorf("drained RunUntil(3): returned %v, Now %v, Pending %d; want 3, 3, 0",
			now, d.Now(), d.Pending())
	}
}

func TestStep(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(2, func() { fired++ })
	if !e.Step() || fired != 1 {
		t.Fatal("first Step should fire exactly one event")
	}
	if !e.Step() || fired != 2 {
		t.Fatal("second Step should fire the second event")
	}
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestProcessedCount(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Errorf("Processed = %d", e.Processed())
	}
}

func TestEventOrderProperty(t *testing.T) {
	// Whatever the (non-negative) delays, events fire in nondecreasing time
	// order and the clock never goes backwards.
	f := func(raw []uint16) bool {
		var e Engine
		var fireTimes []Time
		for _, r := range raw {
			d := Time(r % 1000)
			e.Schedule(d, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHeapKeyHasNoPointers pins the heap element's layout: sifting moves keys
// as plain memory, with no GC write barriers, only while a key holds no
// pointer. Payloads belong in the slab.
func TestHeapKeyHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("heap key field %s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	typ := reflect.TypeOf(key{})
	walk("key", typ)
	if typ.Size() > 24 {
		t.Errorf("heap key is %d bytes, want at most 24", typ.Size())
	}
}
