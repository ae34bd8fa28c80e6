//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// child is the parent's handle on one server-under-test process.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
}

// childArgs is how a process re-invokes itself in the server role. The
// test binary answers to the same arguments (see TestMain).
func childArgs(config string, tracer bool) []string {
	return []string{"-role=server", "-config=" + config, fmt.Sprintf("-tracer=%t", tracer)}
}

// spawnChild starts the server under test and waits for its listener.
func spawnChild(config string, tracer bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childArgs(config, tracer)...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server child: %w", err)
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 64<<10)}
	var r ready
	if err := c.readJSON(&r); err != nil || r.Addr == "" {
		c.kill()
		return nil, fmt.Errorf("server child did not come up: %v", err)
	}
	c.addr = r.Addr
	return c, nil
}

func (c *child) readJSON(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// command sends one line and decodes the snapshot that answers it.
func (c *child) command(cmd string) (snapshot, error) {
	var s snapshot
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return s, fmt.Errorf("child %q: %w", cmd, err)
	}
	if err := c.readJSON(&s); err != nil {
		return s, fmt.Errorf("child %q: %w", cmd, err)
	}
	if s.Error != "" {
		return s, fmt.Errorf("child %q: %s", cmd, s.Error)
	}
	return s, nil
}

// quit drains the child, waits for it to exit and returns its final
// snapshot. A child that does not exit cleanly within the budget is killed
// and reported as an error.
func (c *child) quit() (snapshot, error) {
	final, err := c.command("quit")
	c.in.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case werr := <-done:
		if err == nil && werr != nil {
			err = fmt.Errorf("server child exit: %w", werr)
		}
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-done
		err = errors.Join(err, errors.New("server child did not exit; killed"))
	}
	return final, err
}

// kill is the error-path teardown.
func (c *child) kill() {
	c.in.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}
