import json
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from leafage.errors import ModelError
from leafage.models import ExternalModel, external

SIGN_STUB = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        labels = [1 if row[0] >= 0 else 0 for row in req["instances"]]
        print(json.dumps({"labels": labels}), flush=True)
    """
)


def stub_command(tmp_path, source, name="stub.py"):
    path = tmp_path / name
    path.write_text(source)
    return [sys.executable, str(path)]


@pytest.fixture
def sign_model(tmp_path):
    with ExternalModel(stub_command(tmp_path, SIGN_STUB), n_features=1) as model:
        yield model


class TestProtocol:
    def test_response_length_matches_request(self, sign_model):
        labels = sign_model.predict_labels(np.array([[1.0], [2.0]]))
        assert labels.shape == (2,)

    def test_sign_stub_values(self, sign_model):
        labels = sign_model.predict_labels(np.array([[1.0], [-1.0]]))
        assert labels.tolist() == [1, 0]

    def test_batch_of_100_matches_direct_evaluation(self, sign_model):
        rows = np.random.default_rng(0).normal(size=(100, 1))
        labels = sign_model.predict_labels(rows)
        expected = (rows[:, 0] >= 0).astype(int)
        assert np.array_equal(labels, expected)

    def test_numpy_scalar_options(self, tmp_path):
        with ExternalModel(
            stub_command(tmp_path, SIGN_STUB), n_features=np.int64(1),
            timeout_ms=np.int64(10_000),
        ) as model:
            assert model.predict_labels(np.array([[2.0], [-2.0]])).tolist() == [1, 0]

    def test_repeated_requests_on_one_handle(self, sign_model):
        for _ in range(5):
            labels = sign_model.predict_labels(np.array([[3.0]]))
            assert labels.tolist() == [1]

    def test_request_past_the_pipe_buffer_round_trips(self, sign_model):
        # ~400 KB of request, several times a 64 KB pipe buffer.
        rows = np.random.default_rng(1).normal(size=(20_000, 1))
        labels = sign_model.predict_labels(rows)
        assert np.array_equal(labels, (rows[:, 0] >= 0).astype(int))

    def test_unterminated_last_line_is_the_reply(self, tmp_path):
        last_words = textwrap.dedent(
            """
            import sys
            sys.stdin.readline()
            sys.stdout.write('{"labels": [1]}')
            """
        )
        with ExternalModel(stub_command(tmp_path, last_words), n_features=1) as model:
            assert model.predict_labels(np.array([[-1.0]])).tolist() == [1]

    def test_handle_starts_no_thread(self, tmp_path):
        before = threading.active_count()
        with ExternalModel(stub_command(tmp_path, SIGN_STUB), n_features=1) as model:
            assert model.predict_labels(np.array([[1.0]])).tolist() == [1]
            assert threading.active_count() == before


class TestFailureModes:
    def test_process_exit_mid_request(self, tmp_path):
        dying = "import sys; sys.stdin.readline(); sys.exit(1)\n"
        with ExternalModel(stub_command(tmp_path, dying), n_features=1) as model:
            with pytest.raises(ModelError, match="exited"):
                model.predict_labels(np.array([[1.0]]))

    def test_exited_child_refuses_requests(self, tmp_path):
        quitter = "import sys; sys.exit(0)\n"
        with ExternalModel(stub_command(tmp_path, quitter), n_features=1) as model:
            model._proc.wait()
            with pytest.raises(ModelError, match="not accepting requests"):
                model.predict_labels(np.array([[1.0]]))

    def test_malformed_response(self, tmp_path):
        babbler = textwrap.dedent(
            """
            import sys
            for line in sys.stdin:
                print("not json at all", flush=True)
            """
        )
        with ExternalModel(stub_command(tmp_path, babbler), n_features=1) as model:
            with pytest.raises(ModelError, match="malformed"):
                model.predict_labels(np.array([[1.0]]))

    def test_wrong_label_count(self, tmp_path):
        short = textwrap.dedent(
            """
            import json, sys
            for line in sys.stdin:
                print(json.dumps({"labels": [1]}), flush=True)
            """
        )
        with ExternalModel(stub_command(tmp_path, short), n_features=1) as model:
            with pytest.raises(ModelError, match="must carry 2 labels"):
                model.predict_labels(np.array([[1.0], [2.0]]))

    def test_timeout(self, tmp_path):
        sleeper = textwrap.dedent(
            """
            import sys, time
            sys.stdin.readline()
            time.sleep(30)
            """
        )
        with ExternalModel(
            stub_command(tmp_path, sleeper), n_features=1, timeout_ms=300
        ) as model:
            with pytest.raises(ModelError, match="timed out"):
                model.predict_labels(np.array([[1.0]]))

    def test_timeout_covers_sending_the_request(self, tmp_path):
        # The request overflows the pipe buffer, so writing it blocks until
        # the child reads; the sleep is bounded so a regression fails
        # instead of hanging.
        slow_reader = textwrap.dedent(
            """
            import sys, time
            time.sleep(8)
            sys.stdin.readline()
            """
        )
        model = ExternalModel(
            stub_command(tmp_path, slow_reader), n_features=1, timeout_ms=300
        )
        start = time.monotonic()
        with pytest.raises(ModelError, match="timed out"):
            model.predict_labels(np.zeros((20_000, 1)))
        assert time.monotonic() - start < 3.0
        with pytest.raises(ModelError, match="closed"):
            model.predict_labels(np.zeros((1, 1)))
        assert model._proc.poll() is not None
        model.close()

    def test_late_reply_never_answers_the_next_request(self, tmp_path):
        late_first = textwrap.dedent(
            """
            import json, sys, time
            for n, line in enumerate(sys.stdin):
                if n == 0:
                    time.sleep(0.6)
                labels = [1 if row[0] >= 0 else 0 for row in json.loads(line)["instances"]]
                print(json.dumps({"labels": labels}), flush=True)
            """
        )
        with ExternalModel(
            stub_command(tmp_path, late_first), n_features=1, timeout_ms=300
        ) as model:
            with pytest.raises(ModelError, match="timed out"):
                model.predict_labels(np.array([[1.0]]))
            time.sleep(0.5)  # the late reply to [[1.0]] would be waiting now
            with pytest.raises(ModelError, match="closed: a request timed out"):
                model.predict_labels(np.array([[-1.0]]))
            assert model._proc.poll() is not None

    def test_reply_of_two_lines_closes_the_handle(self, tmp_path):
        echo_twice = textwrap.dedent(
            """
            import json, sys
            for line in sys.stdin:
                labels = [1 if row[0] >= 0 else 0 for row in json.loads(line)["instances"]]
                reply = json.dumps({"labels": labels}) + "\\n"
                sys.stdout.write(reply + reply)
                sys.stdout.flush()
            """
        )
        with ExternalModel(stub_command(tmp_path, echo_twice), n_features=1) as model:
            with pytest.raises(ModelError, match="answered by more than one line"):
                model.predict_labels(np.array([[1.0]]))
            with pytest.raises(ModelError, match="closed: a request was answered"):
                model.predict_labels(np.array([[-1.0]]))
            assert model._proc.poll() is not None

    def test_stray_line_after_the_reply_closes_the_handle(self, tmp_path):
        afterthought = textwrap.dedent(
            """
            import sys, time
            for line in sys.stdin:
                print('{"labels": [1]}', flush=True)
                time.sleep(0.05)
                print('{"labels": [1]}', flush=True)
            """
        )
        with ExternalModel(stub_command(tmp_path, afterthought), n_features=1) as model:
            assert model.predict_labels(np.array([[1.0]])).tolist() == [1]
            time.sleep(1.0)  # the stray line is waiting now
            with pytest.raises(ModelError, match="answered by more than one line"):
                model.predict_labels(np.array([[-1.0]]))

    def test_undecodable_reply_is_malformed_not_a_timeout(self, tmp_path):
        garbled = textwrap.dedent(
            """
            import sys
            sys.stdin.readline()
            sys.stdout.buffer.write(b'{"labels": [1]}\\xff\\n')
            sys.stdout.flush()
            sys.stdin.readline()
            """
        )
        with ExternalModel(
            stub_command(tmp_path, garbled), n_features=1, timeout_ms=5000
        ) as model:
            start = time.monotonic()
            with pytest.raises(ModelError, match="malformed external model response"):
                model.predict_labels(np.array([[1.0]]))
            assert time.monotonic() - start < 2.0

    def test_request_after_close_rejected(self, tmp_path):
        model = ExternalModel(stub_command(tmp_path, SIGN_STUB), n_features=1)
        model.close()
        with pytest.raises(ModelError, match="closed: close"):
            model.predict_labels(np.array([[1.0]]))

    def test_launch_failure(self):
        with pytest.raises(ModelError, match="cannot launch"):
            ExternalModel(["/nonexistent/binary"], n_features=1)

    @pytest.mark.parametrize(
        "command",
        [[], [sys.executable, 1], "python3", (sys.executable,), [b"python3"], None],
        ids=["empty", "int-arg", "string", "tuple", "bytes-arg", "none"],
    )
    def test_command_must_be_an_argv_list(self, monkeypatch, command):
        def no_stderr_file(*args, **kwargs):
            raise AssertionError("stderr file created for a bad command")

        monkeypatch.setattr(external.tempfile, "TemporaryFile", no_stderr_file)
        with pytest.raises(ModelError, match="non-empty list of strings"):
            ExternalModel(command, n_features=1)

    @pytest.mark.parametrize(
        "option, value",
        [("n_features", "2"), ("n_features", 0), ("n_features", -1),
         ("n_features", True), ("n_features", 2.0), ("timeout_ms", 0),
         ("timeout_ms", -5), ("timeout_ms", "100"), ("timeout_ms", float("nan")),
         ("timeout_ms", float("inf")), ("timeout_ms", True)],
    )
    def test_bad_option_rejected_before_launch(self, monkeypatch, option, value):
        def no_launch(*args, **kwargs):
            raise AssertionError("a process was started for a bad option")

        monkeypatch.setattr(external.tempfile, "TemporaryFile", no_launch)
        monkeypatch.setattr(external, "Popen", no_launch)
        options = {"n_features": 1, option: value}
        with pytest.raises(ModelError, match=f"{option} must be"):
            ExternalModel([sys.executable, "-c", "pass"], **options)

    def test_non_binary_labels_rejected(self, tmp_path):
        # 7 is no 0/1 code, and JSON booleans are not integers.
        weird = textwrap.dedent(
            """
            import sys
            replies = iter(["[7]", "[true]", "[false]"])
            for line in sys.stdin:
                print('{"labels": %s}' % next(replies), flush=True)
            """
        )
        with ExternalModel(stub_command(tmp_path, weird), n_features=1) as model:
            for reply in ("[7]", "[true]", "[false]"):
                with pytest.raises(ModelError, match="0/1") as exc:
                    model.predict_labels(np.array([[1.0]]))
                assert reply in str(exc.value)

    def test_crash_reports_stderr_tail(self, tmp_path):
        crashing = textwrap.dedent(
            """
            import sys
            sys.stdin.readline()
            raise RuntimeError("weights file missing")
            """
        )
        with ExternalModel(stub_command(tmp_path, crashing), n_features=1) as model:
            with pytest.raises(ModelError, match="exited mid-request") as exc:
                model.predict_labels(np.array([[1.0]]))
        assert "RuntimeError: weights file missing" in str(exc.value)

    def test_timeout_reports_stderr_tail(self, tmp_path):
        stuck = textwrap.dedent(
            """
            import sys, time
            sys.stdin.readline()
            print("loading weights", file=sys.stderr, flush=True)
            time.sleep(30)
            """
        )
        with ExternalModel(
            stub_command(tmp_path, stuck), n_features=1, timeout_ms=500
        ) as model:
            with pytest.raises(ModelError, match="timed out") as exc:
                model.predict_labels(np.array([[1.0]]))
        assert str(exc.value).endswith("loading weights")

    def test_stderr_tail_is_bounded(self, tmp_path):
        noisy = textwrap.dedent(
            """
            import sys
            sys.stdin.readline()
            sys.stderr.write("x" * (1 << 20) + "LAST LINE")
            sys.exit(1)
            """
        )
        with ExternalModel(stub_command(tmp_path, noisy), n_features=1) as model:
            with pytest.raises(ModelError, match="exited mid-request") as exc:
                model.predict_labels(np.array([[1.0]]))
        message = str(exc.value)
        assert message.endswith("x" * 100 + "LAST LINE")
        assert len(message) < 2048 + 100
