//! Bulletin board (§4 i): posting and retrieving via top-level
//! independent actions.
//!
//! "While it is desirable for bulletin board operations to be structured
//! as atomic actions, if these actions are nested within the actions of
//! an application, then bulletin information can remain inaccessible for
//! long times. Top-level independent actions give the desired
//! functionality. Of course, if the invoking action aborts it may well
//! be necessary to invoke a compensating top-level action."

use chroma_core::{ActionError, ActionScope, Runtime};
use chroma_store::stored;
use chroma_structures::{independent_async, independent_sync, IndependentHandle};

stored! {
    /// One bulletin-board entry.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Post {
        /// Who posted.
        pub author: String,
        /// The message.
        pub text: String,
        /// Board-assigned sequence number.
        pub seq: u64,
        /// `true` if a compensating post retracted this one.
        pub retracted: bool,
    }
}

stored! {
    #[derive(Clone, Debug, Default, PartialEq)]
    struct BoardState {
        posts: Vec<Post>,
        next_seq: u64,
    }
}

/// A persistent bulletin board whose operations are atomic actions.
///
/// Posting from inside an application action uses an independent action,
/// so the post is visible (and permanent) immediately, regardless of the
/// application's eventual fate; [`BulletinBoard::retract`] is the
/// compensating action for invokers that abort.
///
/// # Examples
///
/// ```
/// use chroma_core::{ActionError, Runtime};
/// use chroma_apps::BulletinBoard;
///
/// # fn main() -> Result<(), ActionError> {
/// let rt = Runtime::builder().build();
/// let board = BulletinBoard::create(&rt)?;
/// let result: Result<(), ActionError> = rt.atomic(|a| {
///     board.post_from(a, "ada", "build finished")?;
///     Err(ActionError::failed("application aborted"))
/// });
/// assert!(result.is_err());
/// assert_eq!(board.posts()?.len(), 1); // the post survived
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct BulletinBoard {
    rt: Runtime,
    board: chroma_core::ObjectId,
}

impl BulletinBoard {
    /// Creates an empty board.
    ///
    /// # Errors
    ///
    /// Codec failures (never occur for the empty state).
    pub fn create(rt: &Runtime) -> Result<Self, ActionError> {
        let board = rt.create_object(&BoardState::default())?;
        Ok(BulletinBoard {
            rt: rt.clone(),
            board,
        })
    }

    /// Posts from inside an application action as a *synchronous
    /// independent action*: the post is permanent when this returns,
    /// whatever later happens to the invoker.
    ///
    /// # Errors
    ///
    /// Lock or codec failures from the board update.
    pub fn post_from(
        &self,
        scope: &mut ActionScope<'_>,
        author: &str,
        text: &str,
    ) -> Result<u64, ActionError> {
        let board = self.board;
        let (author, text) = (author.to_owned(), text.to_owned());
        independent_sync(scope, move |b| {
            b.modify(board, |state: &mut BoardState| {
                let seq = state.next_seq;
                state.next_seq += 1;
                state.posts.push(Post {
                    author,
                    text,
                    seq,
                    retracted: false,
                });
                seq
            })
        })
    }

    /// Posts as an *asynchronous independent action* (fig. 7b): returns
    /// immediately with a handle to the eventual sequence number.
    #[must_use]
    pub fn post_async(&self, author: &str, text: &str) -> IndependentHandle<u64> {
        let board = self.board;
        let (author, text) = (author.to_owned(), text.to_owned());
        independent_async(&self.rt, move |b| {
            b.modify(board, |state: &mut BoardState| {
                let seq = state.next_seq;
                state.next_seq += 1;
                state.posts.push(Post {
                    author,
                    text,
                    seq,
                    retracted: false,
                });
                seq
            })
        })
    }

    /// The compensating action: marks a post retracted (top-level
    /// independent, callable from anywhere — typically after the
    /// original invoker aborted).
    ///
    /// # Errors
    ///
    /// Lock or codec failures from the board update.
    pub fn retract(&self, seq: u64) -> Result<bool, ActionError> {
        let board = self.board;
        let colour = self.rt.universe().fresh()?;
        let result = self
            .rt
            .run_top(chroma_core::ColourSet::single(colour), colour, |scope| {
                scope.modify(board, |state: &mut BoardState| {
                    match state.posts.iter_mut().find(|p| p.seq == seq) {
                        Some(post) => {
                            post.retracted = true;
                            true
                        }
                        None => false,
                    }
                })
            });
        self.rt.universe().release(colour);
        result
    }

    /// Prunes the board to its most recent `keep_last` posts, dropping
    /// the oldest ones (retracted or not). Returns how many were
    /// removed. Sequence numbering is unaffected, so later retracts of
    /// surviving posts still work.
    ///
    /// # Errors
    ///
    /// Lock or codec failures from the board update.
    pub fn prune(&self, keep_last: usize) -> Result<usize, ActionError> {
        let board = self.board;
        self.rt.atomic(|a| {
            a.modify(board, |state: &mut BoardState| {
                let excess = state.posts.len().saturating_sub(keep_last);
                state.posts.drain(..excess);
                excess
            })
        })
    }

    /// The number of posts currently on the board.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn post_count(&self) -> Result<usize, ActionError> {
        let board = self.board;
        self.rt
            .atomic(|a| a.read::<BoardState>(board))
            .map(|s| s.posts.len())
    }

    /// Reads all posts (as a top-level atomic action).
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn posts(&self) -> Result<Vec<Post>, ActionError> {
        let board = self.board;
        self.rt
            .atomic(|a| a.read::<BoardState>(board))
            .map(|s| s.posts)
    }

    /// Reads posts from within an existing action.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn posts_from(&self, scope: &ActionScope<'_>) -> Result<Vec<Post>, ActionError> {
        scope.read::<BoardState>(self.board).map(|s| s.posts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_types_keep_their_bytes() {
        let post = Post {
            author: "ada".into(),
            text: "hi".into(),
            seq: 1,
            retracted: true,
        };
        crate::assert_stored_bytes(
            &post,
            "030000000000000061646102000000000000006869010000000000000001",
        );
        crate::assert_stored_bytes(
            &BoardState {
                posts: vec![post],
                next_seq: 2,
            },
            "01000000000000000300000000000000616461020000000000000068690100000000000000010200000000000000",
        );
    }

    #[test]
    fn posts_survive_invoker_abort() {
        let rt = Runtime::builder().build();
        let board = BulletinBoard::create(&rt).unwrap();
        let result: Result<(), ActionError> = rt.atomic(|a| {
            board.post_from(a, "ada", "hello")?;
            Err(ActionError::failed("invoker aborts"))
        });
        assert!(result.is_err());
        let posts = board.posts().unwrap();
        assert_eq!(posts.len(), 1);
        assert_eq!(posts[0].text, "hello");
    }

    #[test]
    fn async_posts_are_permanent() {
        let rt = Runtime::builder().build();
        let board = BulletinBoard::create(&rt).unwrap();
        let h1 = board.post_async("a", "one");
        let h2 = board.post_async("b", "two");
        h1.join().unwrap();
        h2.join().unwrap();
        let posts = board.posts().unwrap();
        assert_eq!(posts.len(), 2);
        // Sequence numbers are unique even with concurrent posters.
        assert_ne!(posts[0].seq, posts[1].seq);
    }

    #[test]
    fn retraction_compensates_after_abort() {
        let rt = Runtime::builder().build();
        let board = BulletinBoard::create(&rt).unwrap();
        let mut posted_seq = None;
        let result: Result<(), ActionError> = rt.atomic(|a| {
            posted_seq = Some(board.post_from(a, "ada", "meeting at 10")?);
            Err(ActionError::failed("plans changed"))
        });
        assert!(result.is_err());
        assert!(board.retract(posted_seq.unwrap()).unwrap());
        let posts = board.posts().unwrap();
        assert!(posts[0].retracted);
    }

    #[test]
    fn retract_unknown_seq_reports_false() {
        let rt = Runtime::builder().build();
        let board = BulletinBoard::create(&rt).unwrap();
        assert!(!board.retract(99).unwrap());
    }

    #[test]
    fn posts_visible_immediately_not_blocked_by_invoker() {
        // The §4(i) motivation: a nested post would stay locked until
        // the application ends; an independent post is readable at once.
        let rt = Runtime::builder().build();
        let board = BulletinBoard::create(&rt).unwrap();
        rt.atomic(|a| {
            board.post_from(a, "ada", "early news")?;
            // Another client reads the board while the invoker is still
            // running.
            let posts = board.posts()?;
            assert_eq!(posts.len(), 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn prune_keeps_newest_posts() {
        let rt = Runtime::builder().build();
        let board = BulletinBoard::create(&rt).unwrap();
        for i in 0..5 {
            board.post_async("a", &format!("post {i}")).join().unwrap();
        }
        assert_eq!(board.post_count().unwrap(), 5);
        assert_eq!(board.prune(2).unwrap(), 3);
        let posts = board.posts().unwrap();
        assert_eq!(posts.len(), 2);
        // The newest posts survive, and their seqs still resolve.
        assert_eq!(posts[0].text, "post 3");
        assert_eq!(posts[1].text, "post 4");
        assert!(board.retract(posts[1].seq).unwrap());
        // Pruning below the floor is a no-op.
        assert_eq!(board.prune(10).unwrap(), 0);
        assert_eq!(board.post_count().unwrap(), 2);
    }

    #[test]
    fn posts_survive_crash() {
        let rt = Runtime::builder().build();
        let board = BulletinBoard::create(&rt).unwrap();
        board.post_async("a", "durable").join().unwrap();
        rt.crash_and_recover();
        assert_eq!(board.posts().unwrap().len(), 1);
    }
}
