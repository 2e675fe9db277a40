package main

import (
	"fmt"

	"reachfix/internal/lib"
)

func main() {
	c := lib.NewCounter()
	c.Hit()
	c.Bump()
	c.Merge(*c)
	fmt.Println(lib.Used(), lib.Square{Side: 2}, c.Seen(), c.Sum(*c))

	lib.Discarded()
	lib.Pair()
	n, _ := lib.Pair()
	f := lib.Callback
	lib.Callback()

	var s lib.Sink = &lib.Log{}
	if err := s.Put(n + f()); err != nil {
		fmt.Println(err)
	}
	_ = s.Put(1)
	s.Flush()
	defer s.Flush()
}
